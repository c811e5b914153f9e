"""SpMM-BC baseline: concurrent top-down-only GPU BFS.

The regularized-centrality system of Sariyuce et al. [27] "also extends
the GPU-based BFS to concurrent BFS, but it does not support bottom-up
BFS" (section 9).  Under the planner this is nothing but a policy
preset — :func:`repro.plan.presets.spmm_bc_policy`, a top-down-only
:class:`~repro.plan.policy.FixedPolicy` — over the bitwise concurrent
engine with random grouping: it enjoys joint execution of many
instances (hence beating B40C) but pays full top-down inspection cost
at the dense middle levels where iBFS switches to bottom-up.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import RandomGroupsBaseline
from repro.core.bitwise import BitwiseTraversal
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.plan.presets import spmm_bc_policy


class SpMMBC(RandomGroupsBaseline):
    """Concurrent top-down-only bitwise BFS with random groups."""

    name = "spmm-bc"

    def __init__(
        self,
        graph: CSRGraph,
        group_size: int = 64,
        device: Optional[Device] = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.group_size = group_size
        self.device = device or Device()
        self.seed = seed
        self._engine = BitwiseTraversal(
            graph, self.device, planner=spmm_bc_policy()
        )
