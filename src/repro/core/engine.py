"""The user-facing iBFS engine: group, schedule, run, aggregate.

``IBFS`` ties the three techniques together the way section 8 runs
them: sources are partitioned into groups of at most ``N`` (bounded by
the device-memory capacity rule of section 3), each group runs as one
joint kernel (JSA- or BSA-based), and groups execute serially on one
device.  Multi-GPU runs schedule the independent groups' simulated
times on a :class:`~repro.gpusim.cluster.Cluster`
(``Cluster(k).run(result.group_times())``, section 8.3); graph-partitioned
runs go through :class:`~repro.dist.engine.PartitionedEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.obs import profile as obs_profile
from repro.core.bitwise import BitwiseTraversal
from repro.core.groupby import GroupByConfig, group_sources, random_groups
from repro.core.joint import JointTraversal
from repro.core.result import ConcurrentResult
from repro.core.traversal import validate_group
from repro.plan.policy import DirectionPolicy, Policy
from repro.plan.types import RunPlan

#: JSA stores one byte per instance-vertex; BSA one bit.
_STATUS_BYTES_PER_INSTANCE = {"joint": 1.0, "bitwise": 0.125}


@dataclass(frozen=True)
class IBFSConfig:
    """Configuration of an :class:`IBFS` engine.

    Attributes
    ----------
    group_size:
        Maximum concurrent instances per kernel (the paper's N, default
        128); clamped by the device capacity rule at run time.
    mode:
        ``"bitwise"`` (full iBFS, default) or ``"joint"`` (JSA-based
        joint traversal without the bitwise optimization).
    groupby:
        Apply the outdegree-based GroupBy rules; when false, groups are
        formed randomly (the paper's "random grouping" baseline).
    groupby_config:
        Rule parameters (p sequence / q / seed).
    early_termination:
        Bottom-up early termination (bitwise mode only).
    vector_width:
        Status words fetched per load instruction (1, 2, or 4 — the
        CUDA long/long2/long4 vector types of section 6; bitwise mode
        only).
    seed:
        Seed for random grouping.
    """

    group_size: int = 128
    mode: str = "bitwise"
    groupby: bool = True
    groupby_config: GroupByConfig = GroupByConfig()
    early_termination: bool = True
    vector_width: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.group_size <= 0:
            raise TraversalError("group_size must be positive")
        if self.mode not in ("joint", "bitwise"):
            raise TraversalError(f"unknown mode {self.mode!r}")
        if self.vector_width not in (1, 2, 4):
            raise TraversalError(
                f"vector_width must be 1, 2, or 4 (long/long2/long4); "
                f"got {self.vector_width!r}"
            )
        if self.mode == "joint" and self.vector_width != 1:
            raise TraversalError(
                "vector_width is a bitwise-mode knob (status-word vector "
                "loads); joint mode has no packed status words to "
                "vector-load — use mode='bitwise' or vector_width=1"
            )
        if not isinstance(self.groupby_config, GroupByConfig):
            raise TraversalError(
                f"groupby_config must be a GroupByConfig; "
                f"got {type(self.groupby_config).__name__}"
            )
        if not self.groupby and self.groupby_config != GroupByConfig():
            raise TraversalError(
                "custom groupby_config q/p thresholds have no effect with "
                "groupby=False (random grouping uses IBFSConfig.seed); "
                "enable groupby or drop the custom GroupByConfig"
            )


class IBFS:
    """Concurrent BFS engine implementing the paper's full system."""

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[IBFSConfig] = None,
        device: Optional[Device] = None,
        policy: Optional[DirectionPolicy] = None,
        planner: Optional[Policy] = None,
    ) -> None:
        self.graph = graph
        self.config = config or IBFSConfig()
        self.device = device or Device()
        self.policy = policy or DirectionPolicy()
        if self.config.mode == "bitwise":
            self._group_engine = BitwiseTraversal(
                graph,
                self.device,
                self.policy,
                early_termination=self.config.early_termination,
                vector_width=self.config.vector_width,
                planner=planner,
            )
        else:
            self._group_engine = JointTraversal(
                graph, self.device, self.policy, planner=planner
            )
        #: The policy actually making per-level decisions (the explicit
        #: ``planner`` or the legacy knobs wrapped into a HeuristicPolicy).
        self.planner = self._group_engine.planner

    @property
    def name(self) -> str:
        suffix = "+groupby" if self.config.groupby else "+random"
        return f"ibfs-{self.config.mode}{suffix}"

    # ------------------------------------------------------------------
    def make_groups(self, sources: Sequence[int]) -> List[List[int]]:
        """Partition the sources per the configuration (GroupBy or random),
        honoring the device capacity rule."""
        group_size = self.effective_group_size()
        if self.config.groupby:
            return group_sources(
                self.graph, sources, group_size, self.config.groupby_config
            )
        return random_groups(sources, group_size, self.config.seed)

    def effective_group_size(self) -> int:
        """Configured N clamped by section 3's memory-capacity rule."""
        capacity = self.device.max_group_size(
            self.graph,
            status_bytes_per_instance=_STATUS_BYTES_PER_INSTANCE[self.config.mode],
        )
        if capacity <= 0:
            raise TraversalError(
                f"graph does not leave room for any BFS instance on "
                f"{self.device.config.name}"
            )
        return min(self.config.group_size, capacity)

    # ------------------------------------------------------------------
    def run_group(
        self,
        group: Sequence[int],
        max_depth: Optional[int] = None,
        plan: Optional[RunPlan] = None,
    ) -> ConcurrentResult:
        """Execute one pre-formed group as a single joint kernel.

        This is the re-entrant per-group execution hook the serving
        layer (:mod:`repro.service`) builds on: callers that form their
        own batches (e.g. a micro-batcher draining an online request
        queue) run each batch through this method without re-grouping.
        The group must respect the device capacity rule and contain
        distinct in-range sources.  Depths are always stored — the
        returned :class:`ConcurrentResult` holds exactly one group.

        ``plan`` replays a previously recorded
        :class:`~repro.plan.types.RunPlan` bit-identically, skipping
        all per-level heuristic evaluation.
        """
        group = validate_group(
            group, self.graph.num_vertices, self.effective_group_size()
        )
        with obs_profile.span(
            "engine.run_group",
            group_size=len(group),
            mode=self.config.mode,
            policy=self.planner.name if plan is None else plan.policy,
            replay=plan is not None,
        ):
            depths, record, stats = self._group_engine.run_group(
                group, max_depth=max_depth, plan=plan
            )
        return ConcurrentResult.from_groups(
            self.name,
            group,
            self.graph.num_vertices,
            [(depths, record.counters, stats)],
        )

    # ------------------------------------------------------------------
    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult:
        """Traverse from all sources; groups run serially on this
        engine's device, so ``seconds`` is the sum of the group times
        (price them on a cluster with :meth:`ConcurrentResult.group_times`).
        """
        sources = [int(s) for s in sources]
        parts = (
            self.run_group(group, max_depth=max_depth)
            for group in self.make_groups(sources)
        )
        return ConcurrentResult.from_groups(
            self.name,
            sources,
            self.graph.num_vertices,
            ((p.depths, p.counters, p.groups[0]) for p in parts),
            store_depths=store_depths,
        )

    # ------------------------------------------------------------------
    def run_all(
        self,
        max_depth: Optional[int] = None,
        store_depths: bool = False,
    ) -> ConcurrentResult:
        """All-pairs shortest path: traverse from every vertex (i = |V|)."""
        return self.run(
            range(self.graph.num_vertices),
            max_depth=max_depth,
            store_depths=store_depths,
        )
