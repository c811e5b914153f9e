"""MS-BFS baseline (Then et al., VLDB 2015) on the CPU cost model.

Faithful to how the iBFS paper characterizes it (sections 1, 6, 9):

* bitwise per-instance statuses, but the frontier ("visit") array is
  **reset at each level**, so the status array does not remember all
  visited vertices and bottom-up **cannot terminate early**;
* a single software thread runs each BFS instance, so no atomics are
  needed, but only ``N`` threads are ever active;
* instances are grouped randomly (no GroupBy).

Under the planner this baseline is a policy preset
(:func:`repro.plan.presets.msbfs_policy` — the direction heuristic with
early termination off) over :class:`~repro.core.bitwise.BitwiseTraversal`
with the engine-level MS-BFS switches (``reset_per_level``,
``thread_per_instance``) on the Xeon device preset, run through the
shared random-groups loop.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import RandomGroupsBaseline
from repro.core.bitwise import BitwiseTraversal
from repro.graph.csr import CSRGraph
from repro.gpusim.config import XEON_CPU
from repro.gpusim.device import Device
from repro.plan.policy import DirectionPolicy, HeuristicPolicy
from repro.plan.presets import msbfs_policy


class MSBFS(RandomGroupsBaseline):
    """Multi-source BFS with per-level status reset on a CPU."""

    name = "ms-bfs"

    def __init__(
        self,
        graph: CSRGraph,
        group_size: int = 64,
        device: Optional[Device] = None,
        policy: Optional[DirectionPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.group_size = group_size
        self.device = device or Device(XEON_CPU)
        self.seed = seed
        if policy is None:
            planner = msbfs_policy()
        else:
            planner = HeuristicPolicy.from_direction_policy(
                policy, early_termination=False
            )
        self._engine = BitwiseTraversal(
            graph,
            self.device,
            policy,
            early_termination=False,
            reset_per_level=True,
            thread_per_instance=True,
            planner=planner,
        )
