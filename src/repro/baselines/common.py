"""Shared execution loop for the grouped baseline systems.

Under the planner, the baselines differ mostly in *policy* — which
per-level decisions they are allowed to make — plus a device preset and
one or two engine-level switches.  What is left to share is the run
loop: partition sources into random groups, run each group through a
traversal engine, and aggregate the groups with
:meth:`~repro.core.result.ConcurrentResult.from_groups`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.groupby import random_groups
from repro.core.result import ConcurrentResult


class RandomGroupsBaseline:
    """A baseline that runs random groups through one group engine.

    Subclasses set ``name``, ``graph``, ``group_size``, ``seed`` and
    ``_engine`` — any group traversal engine returning ``(depths,
    record, stats)`` (the :class:`~repro.core.traversal.GroupTraversal`
    contract).  Groups execute serially; simulated seconds add up.
    """

    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult:
        """Traverse from all sources in randomly formed groups."""
        sources = [int(s) for s in sources]
        runs = (
            self._engine.run_group(group, max_depth=max_depth)
            for group in random_groups(sources, self.group_size, self.seed)
        )
        return ConcurrentResult.from_groups(
            self.name,
            sources,
            self.graph.num_vertices,
            ((depths, record.counters, stats) for depths, record, stats in runs),
            store_depths=store_depths,
        )
