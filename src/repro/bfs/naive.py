"""Naive concurrent-BFS baseline: one private kernel per instance.

"A naive implementation of concurrent BFS will run all BFS instances
separately and keep its own private frontier queue and status array...
NVIDIA Kepler provides Hyper-Q to support concurrent execution of
multiple kernels" (section 2).  Each instance still issues all of its
own memory traffic — nothing is shared — so the kernels contend for
bandwidth, and at the direction-switching level "each individual BFS
would require a large number of threads", oversubscribing the device.
The cost model's :meth:`~repro.gpusim.timing.CostModel.overlapped_time`
prices exactly that, which is why this baseline lands within a few
percent of sequential execution (figure 15) and sometimes loses to it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.gpusim.counters import ProfilerCounters
from repro.gpusim.device import Device
from repro.bfs.single import SingleBFS
from repro.core.result import ConcurrentResult
from repro.plan.policy import DirectionPolicy, Policy


class NaiveConcurrentBFS:
    """Run ``i`` BFS instances as concurrent independent kernels."""

    name = "naive"

    def __init__(
        self,
        graph: CSRGraph,
        device: Optional[Device] = None,
        policy: Optional[DirectionPolicy] = None,
        planner: Optional[Policy] = None,
    ) -> None:
        self.graph = graph
        self.device = device or Device()
        self.engine = SingleBFS(graph, self.device, policy, planner=planner)

    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult:
        """Traverse from every source with Hyper-Q kernel overlap."""
        sources = [int(s) for s in sources]
        if not sources:
            raise TraversalError("at least one source is required")
        counters = ProfilerCounters()
        kernels = []
        depths = [] if store_depths else None
        for source in sources:
            result = self.engine.run(source, max_depth=max_depth)
            counters.merge(result.record.counters)
            kernels.append(result.record.levels)
            if depths is not None:
                depths.append(result.depths)
        seconds = self.device.cost.overlapped_time(kernels)
        matrix = np.stack(depths) if depths else None
        return ConcurrentResult(
            engine=self.name,
            sources=sources,
            seconds=seconds,
            counters=counters,
            depths=matrix,
            num_vertices=self.graph.num_vertices,
        )
