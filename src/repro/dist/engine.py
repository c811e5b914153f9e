"""Level-synchronous partitioned multi-source BFS.

:class:`PartitionedEngine` traverses graphs that no single worker holds
whole: the CSR is split by :class:`~repro.dist.partition.GraphPartitioner`;
every partition keeps the vertex state (one ``uint64`` status word and
one ``int32`` depth row per owned vertex) for its owner range.  The
levels run inside the shared loop
:meth:`repro.core.traversal.GroupTraversal.run_group` (all top-down
under ``FixedPolicy(direction="td")``, or a recorded plan through
``RecordedPolicy``), and each level runs as

1. **expand** — every edge block scans its slice of the joint frontier
   and aggregates ``(destination, instance-mask)`` updates;
2. **exchange** — updates are encoded in the level's resolved wire
   format (:mod:`repro.dist.exchange`) and routed to the destination
   owners (plus, under the 2D layout, the new frontier is broadcast to
   the sibling edge blocks of each owner's grid row);
3. **apply** — owners OR the updates into their status words; bits not
   previously visited become depth ``level + 1`` and form the next
   joint frontier.

Depths depend only on the edge set, so the merged ``(group, |V|)``
matrix is bit-identical to serial :meth:`repro.core.engine.IBFS.run`
for every layout, partition count, wire format, and crash/retry
interleaving.  What the knobs change is the *communication*: per-level
bytes and messages are accounted exactly and priced by the
:mod:`repro.dist.comm` cost models, and the per-level format choice is
recorded into the run's :class:`~repro.plan.types.RunPlan` (via the
``exchange`` field of :class:`~repro.plan.types.LevelDecision`) so a
replay re-sends exactly the recorded bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.native as native
from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.kernels import (
    per_bit_counts,
    per_bit_weighted,
    scatter_or,
    unpack_lane_bits,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.core.groupby import GroupByConfig, group_sources, random_groups
from repro.core.result import ConcurrentResult
from repro.core.traversal import GroupRun, GroupTraversal, validate_group
from repro.exec.faults import FaultLog, FaultPolicy, crash_error
from repro.util import expand_ranges
from repro.plan.policy import FixedPolicy
from repro.plan.types import Direction, LevelDecision, RunPlan
from repro.dist.comm import CommCostModel
from repro.dist.exchange import (
    SPARSE_ENTRY_BYTES,
    ExchangePayload,
    ExchangePolicy,
    encode_updates,
    merge_payload,
)
from repro.dist.partition import (
    BALANCE_MODES,
    LAYOUTS,
    GraphPartition,
    GraphPartitioner,
    PartitionSet,
    check_partition_cover,
)

#: Depth value of unreached vertices (matches the serial engines).
UNVISITED = -1

#: Hard instance cap: one uint64 status word per vertex.
MAX_GROUP_SIZE = 64

_BACKENDS = ("inline", "process")

#: Vertices per row block when transposing owned depth blocks into the
#: ``(group, |V|)`` result.
_COPY_ROWS = 4096


@dataclass(frozen=True)
class DistConfig:
    """Configuration of a :class:`PartitionedEngine`.

    ``group_size``/``groupby``/``groupby_config``/``seed`` mirror
    :class:`~repro.core.engine.IBFSConfig` so source grouping stays
    identical to the serial engine; ``group_size`` is additionally
    clamped to :data:`MAX_GROUP_SIZE` (one status word per vertex).
    """

    num_partitions: int = 2
    layout: str = "1d"
    balance: str = "edges"
    #: Default wire format ("auto" lets :class:`ExchangePolicy` decide
    #: per level from the previous level's frontier).
    exchange: str = "auto"
    exchange_threshold: float = 1.0
    group_size: int = MAX_GROUP_SIZE
    groupby: bool = True
    groupby_config: GroupByConfig = GroupByConfig()
    seed: int = 0
    #: ``"inline"`` runs every partition in this process; ``"process"``
    #: spawns one worker per partition over shared-memory partitions.
    backend: str = "inline"
    faults: FaultPolicy = FaultPolicy()
    #: Deterministic crash injection for the process backend
    #: (:class:`repro.dist.procs.DistFaultPlan`).
    fault_plan: Optional[object] = None
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise TraversalError("num_partitions must be positive")
        if self.layout not in LAYOUTS:
            raise TraversalError(
                f"layout must be one of {LAYOUTS}; got {self.layout!r}"
            )
        if self.balance not in BALANCE_MODES:
            raise TraversalError(
                f"balance must be one of {BALANCE_MODES}; "
                f"got {self.balance!r}"
            )
        if self.backend not in _BACKENDS:
            raise TraversalError(
                f"backend must be one of {_BACKENDS}; got {self.backend!r}"
            )
        if self.group_size <= 0:
            raise TraversalError("group_size must be positive")
        # Delegate format/threshold validation.
        ExchangePolicy(self.exchange, self.exchange_threshold)


# ----------------------------------------------------------------------
# Per-partition state and compute (shared by both backends)
# ----------------------------------------------------------------------
class PartitionState:
    """One partition's vertex state plus its edge-block compute.

    The same class backs the inline backend and the process workers, so
    the two backends cannot diverge in results or byte accounting.
    """

    def __init__(self, part: GraphPartition, own_bounds: np.ndarray) -> None:
        self.part = part
        self.own_bounds = np.asarray(own_bounds, dtype=np.int64)
        self._scratch = np.zeros(
            part.dst_stop - part.dst_start, dtype=np.uint64
        )
        self.group_size = 0
        self.visited: Optional[np.ndarray] = None
        self.depths: Optional[np.ndarray] = None

    # -- lifecycle -----------------------------------------------------
    def init_group(self, group_size: int) -> None:
        if not 1 <= group_size <= MAX_GROUP_SIZE:
            raise TraversalError(
                f"group size must be in [1, {MAX_GROUP_SIZE}]; "
                f"got {group_size}"
            )
        self.group_size = group_size
        own = self.part.own_size
        self.visited = np.zeros(own, dtype=np.uint64)
        self.depths = np.full((own, group_size), UNVISITED, dtype=np.int32)

    # -- expand --------------------------------------------------------
    def expand(
        self, vertices: np.ndarray, masks: np.ndarray, fmt: str, kernel: str
    ) -> Tuple[List[Tuple[int, ExchangePayload]], int]:
        """Scan this block's rows of the frontier slice and return the
        encoded per-owner payloads plus the number of edges scanned.

        ``vertices`` are global frontier ids within the block's source
        range; under the dense format a payload goes to *every* owner
        range overlapping the block's column band (the broadcast), under
        the sparse format only where updates exist.  ``kernel`` is the
        level's :attr:`LevelDecision.kernel
        <repro.plan.types.LevelDecision.kernel>`: the top-down
        ``BSA[v] |= BSA_k[f]`` runs on the serial engine's fused native
        edge map when it resolves, else on the segmented numpy scatter.
        """
        part = self.part
        local = np.asarray(vertices, dtype=np.int64) - part.src_start
        ro = part.row_offsets
        starts = ro[local]
        counts = ro[local + 1] - starts
        slots = expand_ranges(starts, counts)
        scratch = self._scratch
        touched = np.empty(0, dtype=np.int64)
        if slots.size:
            dsts = part.col_indices[slots]
            dsts -= part.dst_start
            if native.effective(kernel, 1):
                native.scatter_or(scratch, dsts, masks, repeats=counts)
                touched = native.unique_targets(dsts, scratch.size)
            else:
                touched = scatter_or(scratch, dsts, np.repeat(masks, counts))
        payloads: List[Tuple[int, ExchangePayload]] = []
        touched_global = touched + part.dst_start
        touched_masks = scratch[touched]
        owners = np.flatnonzero(
            (self.own_bounds[:-1] < part.dst_stop)
            & (self.own_bounds[1:] > part.dst_start)
        )
        for owner in owners:
            lo = max(int(self.own_bounds[owner]), part.dst_start)
            hi = min(int(self.own_bounds[owner + 1]), part.dst_stop)
            a = np.searchsorted(touched_global, lo)
            b = np.searchsorted(touched_global, hi)
            if fmt == "sparse" and a == b:
                continue
            payloads.append(
                (
                    int(owner),
                    encode_updates(
                        touched_global[a:b], touched_masks[a:b], lo, hi, fmt
                    ),
                )
            )
        scratch[touched] = 0
        return payloads, slots.size

    # -- apply ---------------------------------------------------------
    def apply(
        self, level: int, payloads: Sequence[ExchangePayload], kernel: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge incoming updates; returns the newly discovered frontier
        slice (global vertex ids, instance masks).  ``level == -1``
        injects the sources (depth 0)."""
        part = self.part
        acc = np.zeros(part.own_size, dtype=np.uint64)
        for payload in payloads:
            merge_payload(payload, acc, part.own_start)
        acc &= ~self.visited
        idx = np.flatnonzero(acc)
        new = acc[idx]
        if idx.size:
            self.visited[idx] |= new
            # A newly set bit's depth cell still holds UNVISITED (-1):
            # adding level + 2 where bits are set writes level + 1.
            if native.effective(kernel, 1):
                native.depth_update(self.depths, idx, new, level + 2)
            else:
                bits = unpack_lane_bits(
                    new.reshape(-1, 1), self.group_size
                ).astype(bool)
                rows = self.depths[idx]
                rows[bits] = level + 1
                self.depths[idx] = rows
        return idx + part.own_start, new

    # -- collect -------------------------------------------------------
    def collect(self) -> np.ndarray:
        """The owned ``(own_size, group_size)`` int32 depth block."""
        return self.depths


class _InlineBackend:
    """All partitions in this process — the reference backend."""

    kind = "inline"

    def __init__(self, pset: PartitionSet) -> None:
        self.states = [
            PartitionState(p, pset.own_bounds) for p in pset.parts
        ]

    def init_group(self, group_size: int, attempt: int) -> None:
        for state in self.states:
            state.init_group(group_size)

    def expand(
        self,
        level: int,
        attempt: int,
        fmt: str,
        kernel: str,
        frontier_slices: Sequence[Tuple[np.ndarray, np.ndarray]],
    ):
        return [
            state.expand(vertices, masks, fmt, kernel)
            for state, (vertices, masks) in zip(self.states, frontier_slices)
        ]

    def apply(
        self,
        level: int,
        kernel: str,
        payloads_per_part: Sequence[List[ExchangePayload]],
    ):
        return [
            state.apply(level, payloads, kernel)
            for state, payloads in zip(self.states, payloads_per_part)
        ]

    def collect(self) -> List[np.ndarray]:
        return [state.collect() for state in self.states]

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class LevelTrace:
    """Communication record of one executed level."""

    level: int
    fmt: str
    #: Touched destination vertices across all update payloads.
    entries: int
    #: Update wire bytes (dense broadcast or sparse pairs).
    update_bytes: int
    #: 2D frontier-broadcast bytes (0 under 1d).
    broadcast_bytes: int
    messages: int
    frontier_vertices: int
    frontier_edges: int
    edges_scanned: Tuple[int, ...]
    compute_seconds: float
    exchange_seconds: float

    @property
    def nbytes(self) -> int:
        return self.update_bytes + self.broadcast_bytes

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "fmt": self.fmt,
            "entries": self.entries,
            "update_bytes": self.update_bytes,
            "broadcast_bytes": self.broadcast_bytes,
            "bytes": self.nbytes,
            "messages": self.messages,
            "frontier_vertices": self.frontier_vertices,
            "frontier_edges": self.frontier_edges,
            "edges_scanned": list(self.edges_scanned),
            "compute_seconds": self.compute_seconds,
            "exchange_seconds": self.exchange_seconds,
        }


@dataclass
class DistStats:
    """Observability of one partitioned run (communication + faults)."""

    backend: str
    layout: str
    num_partitions: int
    groups: int = 0
    levels: List[LevelTrace] = field(default_factory=list)
    crashes: int = 0
    respawns: int = 0
    retries: int = 0
    degraded: bool = False
    wall_seconds: float = 0.0
    events: List[object] = field(default_factory=list)

    @property
    def bytes_total(self) -> int:
        return sum(t.nbytes for t in self.levels)

    @property
    def messages_total(self) -> int:
        return sum(t.messages for t in self.levels)

    def formats(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for t in self.levels:
            out[t.fmt] = out.get(t.fmt, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "layout": self.layout,
            "num_partitions": self.num_partitions,
            "groups": self.groups,
            "bytes_total": self.bytes_total,
            "messages_total": self.messages_total,
            "formats": self.formats(),
            "crashes": self.crashes,
            "respawns": self.respawns,
            "retries": self.retries,
            "degraded": self.degraded,
            "wall_seconds": self.wall_seconds,
            "levels": [t.to_dict() for t in self.levels],
        }

    def publish(self, hub: Optional[obs_metrics.MetricsHub] = None) -> None:
        hub = hub if hub is not None else obs_metrics.get_hub()
        hub.counter(
            "exchange_bytes_total", "Frontier-exchange wire bytes"
        ).inc(self.bytes_total)
        hub.counter(
            "exchange_messages_total", "Frontier-exchange messages"
        ).inc(self.messages_total)
        hub.counter(
            "dist_levels_total", "Partitioned traversal levels executed"
        ).inc(len(self.levels))
        hub.counter(
            "dist_crashes_total", "Partition worker crashes observed"
        ).inc(self.crashes)
        hub.counter(
            "dist_respawns_total", "Partition workers respawned"
        ).inc(self.respawns)
        latency = hub.histogram(
            "exchange_level_seconds",
            "Modeled exchange seconds per traversal level",
        )
        for trace in self.levels:
            latency.observe(trace.exchange_seconds)


# ----------------------------------------------------------------------
# The level step inside the shared group loop
# ----------------------------------------------------------------------
#: Every partitioned level is top-down; replays go through RecordedPolicy.
_TOP_DOWN = FixedPolicy(direction="td")


class _PartitionedTraversal(GroupTraversal):
    """One group's levels across the partitions.

    :meth:`~repro.core.traversal.GroupTraversal.run_group` drives the
    levels; ``_level`` is the distributed step — route the joint
    frontier to the edge blocks, expand, exchange, apply — and prices
    it with the engine's :class:`~repro.dist.comm.CommCostModel`.  One
    instance serves one attempt, so a crash retry starts from fresh
    state on whatever backend the engine holds then.
    """

    def __init__(self, engine: "PartitionedEngine", backend, attempt: int):
        super().__init__(engine.graph, planner=_TOP_DOWN)
        self.name = engine.name
        self.engine = engine
        self.backend = backend
        self.attempt = attempt
        #: Communication record of every executed level, in order.
        self.traces: List[LevelTrace] = []

    # ------------------------------------------------------------------
    def _begin(self, run: GroupRun) -> None:
        group_size = len(run.sources)
        self.backend.init_group(group_size, self.attempt)
        # Source injection: depth 0, not an exchange (no bytes).  One
        # sparse payload per owner holding sources, in vertex order.
        vertices = np.asarray(run.sources, dtype=np.int64)
        masks = np.uint64(1) << np.arange(group_size, dtype=np.uint64)
        order = np.argsort(vertices, kind="stable")
        vertices, masks = vertices[order], masks[order]
        cuts = np.searchsorted(vertices, self.engine.partitions.own_bounds)
        inject = [
            [encode_updates(vertices[a:b], masks[a:b], part.own_start,
                            part.own_stop, "sparse")] if a < b else []
            for part, a, b in zip(
                self.engine.partitions.parts, cuts[:-1], cuts[1:]
            )
        ]
        self._set_frontier(run, self.backend.apply(-1, "auto", inject))
        run.frontier_counts = np.ones(group_size, dtype=np.int64)
        run.visited_deg = self._out_degrees[run.sources].astype(np.int64)
        run.seconds = 0.0

    def _resolve(
        self, run: GroupRun, decision: LevelDecision
    ) -> LevelDecision:
        """Reject bottom-up levels; resolve an ``"auto"`` wire format
        from the frontier about to expand, so the recorded plan holds
        the format actually sent."""
        if Direction.BOTTOM_UP in decision.directions:
            raise TraversalError(
                "the partitioned engine runs top-down levels only; the "
                "plan has a bottom-up decision"
            )
        if decision.exchange != "auto":
            return decision
        engine = self.engine
        fmt = engine.exchange_policy.decide(
            run.frontier_edges, engine._dense_bytes
        )
        return replace(decision, exchange=fmt)

    def _level(
        self,
        run: GroupRun,
        td_instances: List[int],
        bu_instances: List[int],
        level: int,
        decision: LevelDecision,
    ):
        engine = self.engine
        pset = engine.partitions
        fmt, kernel = decision.exchange, decision.kernel
        fq_total = int(run.frontier_counts.sum())
        jfq_size = sum(int(v.shape[0]) for v, _ in run.frontier)
        with obs_tracing.get_tracer().span(
            "exchange.level", level=level, fmt=fmt
        ) as span:
            frontier_slices, broadcast_bytes, broadcast_messages = (
                self._route(run.frontier)
            )
            expanded = self.backend.expand(
                level, self.attempt, fmt, kernel, frontier_slices
            )
            update_bytes = update_messages = entries = 0
            per_owner: List[List[ExchangePayload]] = [
                [] for _ in range(pset.num_partitions)
            ]
            for payloads, _ in expanded:
                for owner, payload in payloads:
                    per_owner[owner].append(payload)
                    update_bytes += payload.nbytes
                    update_messages += 1
                    entries += payload.entries
            new_slices = list(self.backend.apply(level, kernel, per_owner))
            edges_scanned = tuple(int(edges) for _, edges in expanded)
            nbytes = update_bytes + broadcast_bytes
            messages = update_messages + broadcast_messages
            cost = engine.cost_model.price_level(
                edges_scanned, nbytes, messages
            )
            trace = LevelTrace(
                level=level,
                fmt=fmt,
                entries=entries,
                update_bytes=update_bytes,
                broadcast_bytes=broadcast_bytes,
                messages=messages,
                frontier_vertices=jfq_size,
                frontier_edges=run.frontier_edges,
                edges_scanned=edges_scanned,
                compute_seconds=cost.compute_seconds,
                exchange_seconds=cost.exchange_seconds,
            )
            if span is not None:
                span.annotate(
                    bytes=nbytes,
                    messages=messages,
                    entries=entries,
                    frontier=jfq_size,
                    exchange_seconds=trace.exchange_seconds,
                )
        self.traces.append(trace)
        run.seconds += cost.total_seconds
        # Section 5.1's queue sizes of the frontier this level expanded.
        run.observer.record_level(fq_total, jfq_size)
        run.sharing_log["td"].append((fq_total, jfq_size))
        run.sharing_log["bu"].append((0, 0))

        group_size = len(run.sources)
        vertices = np.concatenate([v for v, _ in new_slices])
        masks = np.concatenate([m for _, m in new_slices]).reshape(-1, 1)
        counts = per_bit_counts(masks, group_size, kernel=kernel)
        frontier_edges = per_bit_weighted(
            masks, self._out_degrees[vertices], group_size, kernel=kernel
        )
        counters = run.record.counters
        counters.levels += 1
        counters.kernel_launches += pset.num_partitions
        counters.edges_traversed += sum(edges_scanned)
        counters.frontier_enqueues += int(counts.sum())
        counters.inspections += entries

        self._set_frontier(run, new_slices)
        run.frontier_counts = counts
        run.visited_deg += frontier_edges
        unexplored = self.graph.num_edges - run.visited_deg
        return counts > 0, counts, frontier_edges, unexplored

    def _close(self, run: GroupRun) -> float:
        # One launch per partition per level, counted as each level ran;
        # the time is the communication model's, not the device's.
        return run.seconds

    def _depths(self, run: GroupRun) -> np.ndarray:
        pset = self.engine.partitions
        blocks = self.backend.collect()
        # The owner ranges cover [0, n) (check_partition_cover), so
        # every column is written below.  Row-block copies keep each
        # block's strided reads cache resident, as the serial engine's
        # depth materialization does.
        matrix = np.empty(
            (len(run.sources), self.graph.num_vertices), dtype=np.int32
        )
        for part, block in zip(pset.parts, blocks):
            for i in range(0, block.shape[0], _COPY_ROWS):
                rows = block[i : i + _COPY_ROWS]
                lo = part.own_start + i
                matrix[:, lo : lo + rows.shape[0]] = rows.T
        return matrix

    # ------------------------------------------------------------------
    def _set_frontier(
        self, run: GroupRun, slices: List[Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """The owners' newly discovered (vertices, masks) slices become
        the next level's joint frontier."""
        run.frontier = slices
        run.frontier_edges = sum(
            int(self._out_degrees[v].sum()) for v, _ in slices if v.size
        )

    def _route(self, frontier: Sequence[Tuple[np.ndarray, np.ndarray]]):
        """Route the joint frontier to the edge blocks.

        Owner ranges refine row bands, so an owner's new vertices go to
        the blocks of its own grid row — every sibling block beyond the
        owner itself is a remote copy (the 2D frontier broadcast).
        Returns the per-block slices and the broadcast's bytes and
        messages.
        """
        pset = self.engine.partitions
        remote = pset.cols - 1
        broadcast_bytes = 0
        broadcast_messages = 0
        per_row: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for p, (vertices, masks) in enumerate(frontier):
            if not vertices.size:
                continue
            per_row.setdefault(pset.parts[p].row, []).append(
                (vertices, masks)
            )
            broadcast_bytes += (
                SPARSE_ENTRY_BYTES * int(vertices.shape[0]) * remote
            )
            broadcast_messages += remote
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))
        slices = []
        for part in pset.parts:
            chunks = per_row.get(part.row, [empty])
            slices.append(
                chunks[0] if len(chunks) == 1
                else tuple(np.concatenate(c) for c in zip(*chunks))
            )
        return slices, broadcast_bytes, broadcast_messages


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class PartitionedEngine:
    """Multi-source BFS over a partitioned graph (see module docs).

    Drop-in peer of :class:`~repro.core.engine.IBFS` for the serving
    layer: same ``run_group(group, max_depth, plan)`` /
    ``run(sources, ...)`` surface, same bit-identical depth matrices,
    and the same recorded-plan replay contract.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[DistConfig] = None,
        cost_model: Optional[object] = None,
    ) -> None:
        self.graph = graph
        self.config = config or DistConfig()
        self.partitioner = GraphPartitioner(
            graph,
            self.config.num_partitions,
            layout=self.config.layout,
            balance=self.config.balance,
        )
        self.partitions = self.partitioner.build()
        check_partition_cover(graph, self.partitions)
        self.cost_model = cost_model or CommCostModel()
        self.exchange_policy = ExchangePolicy(
            self.config.exchange, self.config.exchange_threshold
        )
        self._dense_bytes = self.partitions.dense_bytes_per_level()
        self._backend = None
        self._closed = False
        #: Stats of the most recent run/run_group call.
        self.last_stats: Optional[DistStats] = None

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        suffix = "+groupby" if self.config.groupby else "+random"
        return (
            f"dist-{self.config.layout}x{self.config.num_partitions}{suffix}"
        )

    @property
    def backend(self) -> str:
        return self.config.backend

    def effective_group_size(self) -> int:
        """Configured N clamped by the one-status-word-per-vertex rule."""
        return min(self.config.group_size, MAX_GROUP_SIZE)

    def make_groups(self, sources: Sequence[int]) -> List[List[int]]:
        group_size = self.effective_group_size()
        if self.config.groupby:
            return group_sources(
                self.graph, sources, group_size, self.config.groupby_config
            )
        return random_groups(sources, group_size, self.config.seed)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "PartitionedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_backend(self):
        if self._closed:
            raise TraversalError("engine is closed")
        if self._backend is None:
            if self.config.backend == "process":
                from repro.dist.procs import ProcessBackend

                self._backend = ProcessBackend(
                    self.partitions,
                    faults=self.config.faults,
                    fault_plan=self.config.fault_plan,
                    start_method=self.config.start_method,
                )
            else:
                self._backend = _InlineBackend(self.partitions)
        return self._backend

    def _degrade_backend(self):
        """Process pool lost: finish on the inline backend (results are
        identical by construction)."""
        if self._backend is not None:
            self._backend.close()
        self._backend = _InlineBackend(self.partitions)
        return self._backend

    # ------------------------------------------------------------------
    def run_group(
        self,
        group: Sequence[int],
        max_depth: Optional[int] = None,
        plan: Optional[RunPlan] = None,
    ) -> ConcurrentResult:
        """Execute one pre-formed group across all partitions.

        ``plan`` replays a recorded run through
        :class:`~repro.plan.policy.RecordedPolicy`: each level's wire
        format comes from the plan's ``exchange`` fields instead of the
        policy, so the exchange re-sends exactly the recorded bytes.
        """
        group = validate_group(
            group, self.graph.num_vertices, self.effective_group_size()
        )
        stats = DistStats(
            backend=self.config.backend,
            layout=self.config.layout,
            num_partitions=self.config.num_partitions,
        )
        result = self._run_group_with_retry(
            group, max_depth, plan, stats
        )
        stats.groups = 1
        self.last_stats = stats
        stats.publish()
        return result

    def _run_group_with_retry(
        self,
        group: List[int],
        max_depth: Optional[int],
        plan: Optional[RunPlan],
        stats: DistStats,
    ) -> ConcurrentResult:
        from repro.dist.procs import PartitionCrash

        policy = self.config.faults
        log = FaultLog()
        attempt = 0
        wall_start = time.perf_counter()
        try:
            while True:
                backend = self._ensure_backend()
                traversal = _PartitionedTraversal(self, backend, attempt)
                try:
                    with obs_tracing.get_tracer().span(
                        "dist.run_group",
                        layout=self.config.layout,
                        partitions=self.partitions.num_partitions,
                        backend=backend.kind,
                        group_size=len(group),
                        attempt=attempt,
                        replay=plan is not None,
                    ):
                        depths, record, gstats = traversal.run_group(
                            group, max_depth=max_depth, plan=plan
                        )
                    stats.levels.extend(traversal.traces)
                    return ConcurrentResult.from_groups(
                        self.name,
                        group,
                        self.graph.num_vertices,
                        [(depths, record.counters, gstats)],
                    )
                except PartitionCrash as crash:
                    stats.crashes += 1
                    log.record(
                        "crash",
                        task_id=0,
                        worker_id=crash.part_id,
                        attempt=attempt,
                        detail=crash.detail,
                    )
                    attempt += 1
                    if policy.fail_fast or policy.exhausted(attempt):
                        raise crash_error(
                            0, crash.part_id, attempt - 1, crash.detail
                        ) from None
                    stats.retries += 1
                    log.record("retry", task_id=0, attempt=attempt)
                    if backend.respawn(crash.part_id):
                        stats.respawns += 1
                        log.record("respawn", worker_id=crash.part_id)
                    else:
                        # Respawn budget exhausted: the remaining pool
                        # cannot cover every partition — degrade.
                        stats.degraded = True
                        log.record(
                            "degraded",
                            detail="partition pool lost; finishing inline",
                        )
                        self._degrade_backend()
        finally:
            stats.wall_seconds += time.perf_counter() - wall_start
            stats.events.extend(log.events)

    # ------------------------------------------------------------------
    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult:
        """Traverse from all sources; same grouping and bit-identical
        depth matrix as :meth:`repro.core.engine.IBFS.run`."""
        sources = [int(s) for s in sources]
        merged = DistStats(
            backend=self.config.backend,
            layout=self.config.layout,
            num_partitions=self.config.num_partitions,
        )

        def parts():
            for group in self.make_groups(sources):
                part = self.run_group(group, max_depth=max_depth)
                run_stats = self.last_stats
                merged.groups += 1
                merged.levels.extend(run_stats.levels)
                merged.crashes += run_stats.crashes
                merged.respawns += run_stats.respawns
                merged.retries += run_stats.retries
                merged.degraded = merged.degraded or run_stats.degraded
                merged.wall_seconds += run_stats.wall_seconds
                merged.events.extend(run_stats.events)
                yield part.depths, part.counters, part.groups[0]

        result = ConcurrentResult.from_groups(
            self.name,
            sources,
            self.graph.num_vertices,
            parts(),
            store_depths=store_depths,
        )
        self.last_stats = merged
        return result
