"""Host-speed probe: a fixed task timed between episodes.

The shared hosts this benchmark runs on change speed by tens of percent
over minutes (other tenants, clock changes), which moves every host-time
metric of every run at once.  The probe is a fixed piece of work of the
same two kinds the program does — interpreted Python walking a graph,
and numpy sorting, counting and gathering arrays a few MiB large — that
shares no code with ``src/``, so a change to the program never moves it.
Timing it beside the episodes measures the host's speed at that moment;
``run.py`` scales ``ops_per_s`` and ``setup_s`` by the median probe time
of the phase they were measured in.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: Probe seconds on the host the benchmark was defined on (2-core Xeon,
#: 2.1 GHz); scaled host times are expressed at that host's speed.
REFERENCE_SECONDS = 0.1


class Probe:
    """Fixed inputs built once; :meth:`run` times one pass over them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20160626)
        n = 1 << 17
        self.keys = rng.integers(0, n, size=4 * n)
        self.n = n
        # A small random graph as Python adjacency lists.
        vertices = 1 << 13
        src = rng.integers(0, vertices, size=8 * vertices)
        dst = rng.integers(0, vertices, size=8 * vertices)
        adjacency: List[List[int]] = [[] for _ in range(vertices)]
        for u, v in zip(src.tolist(), dst.tolist()):
            adjacency[u].append(v)
            adjacency[v].append(u)
        self.adjacency = adjacency

    def run(self) -> float:
        began = time.perf_counter()
        order = np.argsort(self.keys, kind="stable")
        counts = np.bincount(self.keys[order], minlength=self.n)
        offsets = np.cumsum(counts)
        checksum = int(offsets[self.keys[::7]].sum())
        for root in (0,):
            depth = {root: 0}
            frontier = [root]
            while frontier:
                nxt = []
                for u in frontier:
                    d = depth[u] + 1
                    for v in self.adjacency[u]:
                        if v not in depth:
                            depth[v] = d
                            nxt.append(v)
                frontier = nxt
            checksum += len(depth)
        elapsed = time.perf_counter() - began
        if checksum <= 0:  # keeps the work observable
            raise RuntimeError("probe checksum vanished")
        return elapsed
