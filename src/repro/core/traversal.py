"""The level loop every joint group engine runs (sections 4 and 6).

:class:`GroupTraversal` drives one group of sources through a single
simulated kernel: it validates the sources, opens a planner session
(or replays a recorded :class:`~repro.plan.types.RunPlan`), consumes one
:class:`~repro.plan.types.LevelDecision` per executed level, splits the
active instances into top-down and bottom-up sets, feeds the observed
per-level statistics back to the planner, and closes the kernel with
its simulated time and :class:`~repro.core.result.GroupStats`.

An engine subclass supplies only what differs between status layouts:
``_begin`` (the status array set-up), ``_level`` (one synchronized
level) and ``_depths`` (the ``(N, |V|)`` result matrix).  The
partitioned engine (:mod:`repro.dist.engine`) runs expand, the frontier
exchange and apply as its ``_level``, and overrides the two hooks:
``_resolve`` (the decision a level actually executes) and ``_close``
(the kernel's launch count and simulated seconds).

:func:`validate_group` is the one check every multi-group driver
applies to a caller-formed group before running it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.gpusim.counters import RunRecord
from repro.gpusim.device import Device
from repro.obs import profile as obs_profile
from repro.core.result import GroupStats
from repro.core.sharing import SharingObserver
from repro.plan.policy import (
    DirectionPolicy,
    HeuristicPolicy,
    Policy,
    RecordedPolicy,
)
from repro.plan.types import Direction, LevelDecision, LevelStats, RunPlan


def validate_group(
    group: Sequence[int], num_vertices: int, capacity: int
) -> List[int]:
    """Check one pre-formed group before any engine runs it.

    A group must be non-empty, hold distinct in-range sources and fit
    the engine's effective group size; returns it as a list of ints.
    """
    group = [int(s) for s in group]
    if not group:
        raise TraversalError("a group needs at least one source")
    if len(set(group)) != len(group):
        raise TraversalError("group sources must be distinct")
    for s in group:
        if not 0 <= s < num_vertices:
            raise TraversalError(f"source {s} out of range")
    if len(group) > capacity:
        raise TraversalError(
            f"group of {len(group)} exceeds the effective group size "
            f"{capacity}"
        )
    return group


class GroupRun:
    """State of one group traversal shared by the loop and the engine.

    The loop owns the cost record and the sharing bookkeeping; the
    engine's ``_begin`` attaches its own status arrays as attributes.
    """

    def __init__(self, sources: List[int]) -> None:
        group_size = len(sources)
        self.sources = sources
        self.record = RunRecord()
        self.observer = SharingObserver(group_size)
        self.sharing_log = {"td": [], "bu": []}
        self.bu_inspections = np.zeros(group_size, dtype=np.int64)


class GroupTraversal:
    """Joint traversal of one group: the planner/replay level loop.

    ``policy`` is the legacy direction-switch policy; when no
    ``planner`` is given it is wrapped into an equivalent
    :class:`~repro.plan.policy.HeuristicPolicy`.
    """

    name = "abstract"

    def __init__(
        self,
        graph: CSRGraph,
        device: Optional[Device] = None,
        policy: Optional[DirectionPolicy] = None,
        planner: Optional[Policy] = None,
    ) -> None:
        self.graph = graph
        self.device = device or Device()
        self.policy = policy or DirectionPolicy()
        if planner is None:
            planner = HeuristicPolicy.from_direction_policy(self.policy)
        self.planner = planner
        self._reverse = graph.reverse() if planner.allow_bottom_up else None
        self._out_degrees = graph.out_degrees()

    def run_group(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        plan: Optional[RunPlan] = None,
    ):
        """Traverse all sources jointly.

        Returns
        -------
        (depths, record, stats):
            ``depths`` is an ``(N, |V|)`` int32 matrix; ``record`` the
            per-level cost records; ``stats`` a :class:`GroupStats`.
            With ``plan=`` the recorded decisions replay verbatim and
            no heuristic runs.
        """
        sources = [int(s) for s in sources]
        n = self.graph.num_vertices
        group_size = len(sources)
        if group_size == 0:
            raise TraversalError("group must contain at least one source")
        for s in sources:
            if not 0 <= s < n:
                raise TraversalError(f"source {s} out of range [0, {n})")

        planner = RecordedPolicy(plan) if plan is not None else self.planner
        total_edges = self.graph.num_edges
        session = planner.session(group_size, n, total_edges)
        wants_stats = session.wants_stats
        run_plan = RunPlan(
            policy=planner.name, engine=self.name, group_size=group_size
        )

        run = GroupRun(sources)
        self._begin(run)
        active = np.ones(group_size, dtype=bool)
        # Cumulative visited-vertex count per instance (the adaptive
        # cost model's unvisited estimate); the source is visited.
        visited_count = np.ones(group_size, dtype=np.int64)

        decision: Optional[LevelDecision] = None
        stats_prev: Optional[LevelStats] = None
        level = 0
        while active.any():
            if max_depth is not None and level >= max_depth:
                break
            if level > n + 1:
                raise TraversalError("traversal failed to converge")
            # One decision per executed level: the first comes from
            # initial(), each next from the previous level's observed
            # statistics (None under replay — nothing is recomputed).
            if decision is None:
                decision = session.initial()
            else:
                decision = session.next(stats_prev)
            if decision.num_instances != group_size:
                raise TraversalError(
                    f"planner decided {decision.num_instances} instances "
                    f"for a group of {group_size}"
                )
            decision = self._resolve(run, decision)
            run_plan.append(decision)
            directions = decision.directions
            td_instances = [
                j for j in range(group_size)
                if active[j] and directions[j] is Direction.TOP_DOWN
            ]
            bu_instances = [
                j for j in range(group_size)
                if active[j] and directions[j] is Direction.BOTTOM_UP
            ]
            if bu_instances and self._reverse is None:
                # A replayed or adaptive plan may go bottom-up even when
                # the construction-time policy never would have.
                self._reverse = self.graph.reverse()
            # Per-level wall-clock profile span; a no-op flag test when
            # profiling is off (the <= 5% overhead budget boundary).
            with obs_profile.span(
                "level",
                depth=level,
                td_instances=len(td_instances),
                bu_instances=len(bu_instances),
                kernel=decision.kernel,
                vector_width=decision.vector_width,
                snapshot=decision.snapshot,
                early_termination=decision.early_termination,
                policy=planner.name,
                replay=not wants_stats,
            ):
                progressed, counts, frontier_edges, unexplored = self._level(
                    run, td_instances, bu_instances, level, decision
                )

            # An instance finishes when a top-down level finds no new
            # frontier or a bottom-up level discovers nothing.
            visited_count += counts
            for j in range(group_size):
                if not active[j]:
                    continue
                if directions[j] is Direction.TOP_DOWN:
                    if counts[j] == 0:
                        active[j] = False
                else:
                    if not progressed[j]:
                        active[j] = False
            if wants_stats:
                stats_prev = LevelStats(
                    level=level,
                    num_vertices=n,
                    total_edges=total_edges,
                    frontier_vertices=tuple(int(c) for c in counts),
                    frontier_edges=tuple(int(e) for e in frontier_edges),
                    unexplored_edges=tuple(int(u) for u in unexplored),
                    visited_vertices=tuple(int(v) for v in visited_count),
                    active=tuple(bool(a) for a in active),
                )
            level += 1

        seconds = self._close(run)
        depths = self._depths(run)
        observer = run.observer
        stats = GroupStats(
            sources=sources,
            seconds=seconds,
            sharing_degree=observer.degree(),
            sharing_ratio=observer.ratio(),
            jfq_sizes=list(observer.jfq_sizes),
            per_level_sharing=observer.per_level_degree(),
            td_sharing=run.sharing_log["td"],
            bu_sharing=run.sharing_log["bu"],
            bottom_up_inspections=run.bu_inspections.tolist(),
            plan=run_plan,
        )
        return depths, run.record, stats

    # ------------------------------------------------------------------
    # The engine's part
    # ------------------------------------------------------------------
    def _begin(self, run: GroupRun) -> None:
        """Set up the status arrays with every source at depth 0."""
        raise NotImplementedError

    def _level(
        self,
        run: GroupRun,
        td_instances: List[int],
        bu_instances: List[int],
        level: int,
        decision: LevelDecision,
    ):
        """Run one synchronized level.

        Returns per-instance ``(progressed, counts, frontier_edges,
        unexplored)``: whether the level discovered anything, the size
        and out-degree sum of the new frontier, and the out-degree sum
        still unvisited.
        """
        raise NotImplementedError

    def _depths(self, run: GroupRun) -> np.ndarray:
        """The ``(N, |V|)`` int32 depth matrix of a finished traversal."""
        raise NotImplementedError

    def _resolve(
        self, run: GroupRun, decision: LevelDecision
    ) -> LevelDecision:
        """The decision the coming level actually executes and records."""
        return decision

    def _close(self, run: GroupRun) -> float:
        """Close the kernel: one launch, priced by the device over the
        recorded levels; returns its simulated seconds."""
        run.record.counters.kernel_launches += 1
        return self.device.cost.kernel_time(run.record.levels)
