"""Typed per-level traversal decisions and recorded run plans.

The planner layer (:mod:`repro.plan`) owns every choice the paper makes
*per level*: traversal direction (section 2's top-down/bottom-up
switch), the bottom-up scan kernel variant, the vector load width
(section 6's ``long``/``long2``/``long4``), the workspace snapshot
strategy, and whether bottom-up early termination is armed.  One level
of one group executes exactly one :class:`LevelDecision`; the sequence
of decisions a run actually executed is its :class:`RunPlan`.

A :class:`RunPlan` is a first-class artifact:

* engines attach it to their :class:`~repro.core.result.GroupStats`;
* it replays bit-identically (same depths, same simulated counters)
  through :class:`~repro.plan.policy.RecordedPolicy`, skipping the
  heuristic evaluation that produced it;
* it pickles across the exec task protocol and JSON-round-trips for
  the ``repro plan`` CLI verb and the service-layer plan cache.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.errors import TraversalError

#: Bottom-up scan kernel variants (:func:`repro.kernels.bottomup.bucketed_or_scan`):
#: ``"auto"`` picks the compiled backend when one is available
#: (:mod:`repro.native`), else the flat single-lane specialization when
#: it applies; ``"flat"`` requests the flat numpy passes explicitly,
#: ``"generic"`` forces the row-wise multi-lane numpy passes, and
#: ``"native"`` requests the compiled backend (falling back to the
#: numpy variants with a one-time warning when no backend resolves, so
#: plans recorded on native hosts replay anywhere).  All variants are
#: bit-identical in results and simulated counters; they differ in host
#: execution only.
KERNEL_VARIANTS = ("auto", "flat", "generic", "native")

#: Workspace snapshot strategies for ``BSA_k`` bookkeeping:
#: ``"dirty"`` keeps the dirty-row stash (:class:`~repro.kernels.workspace.LevelWorkspace`),
#: ``"full"`` copies the whole status array each level
#: (:class:`~repro.kernels.workspace.FullSnapshotWorkspace`).  Both
#: produce identical frontiers and counters.
SNAPSHOT_STRATEGIES = ("dirty", "full")

#: CUDA vector data types of section 6 (long/long2/long4).
VECTOR_WIDTHS = (1, 2, 4)

#: Frontier-exchange wire formats for the partitioned distributed
#: engine (:mod:`repro.dist`): ``"dense"`` ships one status bitmap word
#: per destination-range vertex, ``"sparse"`` ships ``(vertex, mask)``
#: pairs for touched vertices only, and ``"auto"`` lets the exchange
#: policy pick per level — the communication counterpart of the
#: top-down/bottom-up direction switch.  Single-process engines ignore
#: the field (like ``snapshot``, it never changes depths or simulated
#: traversal counters).
EXCHANGE_FORMATS = ("auto", "dense", "sparse")


class Direction(enum.Enum):
    """Traversal direction of one BFS level."""

    TOP_DOWN = "td"
    BOTTOM_UP = "bu"


@dataclass(frozen=True)
class LevelDecision:
    """Everything the engines need to execute one level of one group.

    Attributes
    ----------
    directions:
        Per-instance traversal direction, index-aligned with the
        group's sources.  Engines intersect this with their own
        active-instance bookkeeping, so entries of completed instances
        are carried along but never executed.
    kernel:
        Bottom-up scan kernel variant (one of :data:`KERNEL_VARIANTS`);
        ``"auto"``/``"native"`` also route the top-down edge map and
        the depth update through :mod:`repro.native`, in the serial
        engine and in every partition of the partitioned engine.
    vector_width:
        Status words fetched per load instruction (1, 2, or 4).
    snapshot:
        ``BSA_k`` bookkeeping strategy (one of
        :data:`SNAPSHOT_STRATEGIES`); a host-side choice with no effect
        on simulated counters.
    early_termination:
        Arm bottom-up early termination for this level.
    exchange:
        Frontier-exchange wire format for this level (one of
        :data:`EXCHANGE_FORMATS`); consumed by the partitioned
        distributed engine, ignored by single-process engines.  Plans
        recorded by :class:`repro.dist.engine.PartitionedEngine` hold
        the *resolved* format (never ``"auto"``) so replay re-sends
        exactly the recorded bytes.
    """

    directions: Tuple[Direction, ...]
    kernel: str = "auto"
    vector_width: int = 1
    snapshot: str = "dirty"
    early_termination: bool = True
    exchange: str = "auto"

    def __post_init__(self) -> None:
        if not self.directions:
            raise TraversalError("a LevelDecision needs at least one instance")
        for d in self.directions:
            if not isinstance(d, Direction):
                raise TraversalError(
                    f"directions must be Direction members; got {d!r}"
                )
        if self.kernel not in KERNEL_VARIANTS:
            raise TraversalError(
                f"kernel must be one of {KERNEL_VARIANTS}; got {self.kernel!r}"
            )
        if self.vector_width not in VECTOR_WIDTHS:
            raise TraversalError(
                f"vector_width must be one of {VECTOR_WIDTHS}; "
                f"got {self.vector_width}"
            )
        if self.snapshot not in SNAPSHOT_STRATEGIES:
            raise TraversalError(
                f"snapshot must be one of {SNAPSHOT_STRATEGIES}; "
                f"got {self.snapshot!r}"
            )
        if self.exchange not in EXCHANGE_FORMATS:
            raise TraversalError(
                f"exchange must be one of {EXCHANGE_FORMATS}; "
                f"got {self.exchange!r}"
            )

    @property
    def num_instances(self) -> int:
        return len(self.directions)

    @property
    def top_down(self) -> int:
        """Instances directed top-down this level."""
        return sum(1 for d in self.directions if d is Direction.TOP_DOWN)

    @property
    def bottom_up(self) -> int:
        """Instances directed bottom-up this level."""
        return sum(1 for d in self.directions if d is Direction.BOTTOM_UP)

    def to_dict(self) -> Dict:
        return {
            "directions": [d.value for d in self.directions],
            "kernel": self.kernel,
            "vector_width": self.vector_width,
            "snapshot": self.snapshot,
            "early_termination": self.early_termination,
            "exchange": self.exchange,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "LevelDecision":
        try:
            directions = tuple(
                Direction(v) for v in payload["directions"]
            )
        except (KeyError, ValueError) as exc:
            raise TraversalError(f"malformed LevelDecision payload: {exc}")
        # Reject unknown kernels here with the constructor's exact typed
        # error rather than relying on __post_init__ alone: the payload
        # path is how plans from *newer* hosts arrive, so drift between
        # the two validations would let an unknown variant slip into a
        # decision some engines then dispatch on.
        kernel = payload.get("kernel", "auto")
        if kernel not in KERNEL_VARIANTS:
            raise TraversalError(
                f"kernel must be one of {KERNEL_VARIANTS}; got {kernel!r}"
            )
        return cls(
            directions=directions,
            kernel=kernel,
            vector_width=int(payload.get("vector_width", 1)),
            snapshot=payload.get("snapshot", "dirty"),
            early_termination=bool(payload.get("early_termination", True)),
            exchange=payload.get("exchange", "auto"),
        )


@dataclass
class LevelStats:
    """Observed outcome of one executed level, fed back to the policy.

    All per-instance sequences are index-aligned with the group.  The
    values are exactly what the pre-planner engines handed their
    :class:`~repro.plan.policy.DirectionPolicy`: the *new* frontier's
    vertex count and out-degree sum, the remaining unexplored out-degree
    mass, plus the cumulative visited-vertex count the adaptive cost
    model needs.  ``active`` is the post-level liveness mask (an
    instance retires when its frontier empties).
    """

    level: int
    num_vertices: int
    total_edges: int
    frontier_vertices: "Tuple[int, ...]"
    frontier_edges: "Tuple[int, ...]"
    unexplored_edges: "Tuple[int, ...]"
    visited_vertices: "Tuple[int, ...]"
    active: "Tuple[bool, ...]"


@dataclass
class RunPlan:
    """The decision log of one group's traversal, level by level.

    ``decisions[k]`` is the decision level ``k`` executed; the list
    covers exactly the executed levels (a replay that runs past the
    recorded horizon repeats the final decision).  Plans are
    value-comparable, picklable, and JSON-round-trippable.
    """

    policy: str
    engine: str
    group_size: int
    decisions: List[LevelDecision] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.decisions)

    def __iter__(self) -> Iterator[LevelDecision]:
        return iter(self.decisions)

    def append(self, decision: LevelDecision) -> None:
        if decision.num_instances != self.group_size:
            raise TraversalError(
                f"decision for {decision.num_instances} instances appended "
                f"to a plan of group size {self.group_size}"
            )
        self.decisions.append(decision)

    @property
    def needs_bottom_up(self) -> bool:
        """Whether any recorded level directs any instance bottom-up."""
        return any(d.bottom_up > 0 for d in self.decisions)

    def to_dict(self) -> Dict:
        return {
            "policy": self.policy,
            "engine": self.engine,
            "group_size": self.group_size,
            "decisions": [d.to_dict() for d in self.decisions],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunPlan":
        try:
            plan = cls(
                policy=str(payload["policy"]),
                engine=str(payload["engine"]),
                group_size=int(payload["group_size"]),
            )
            for entry in payload.get("decisions", []):
                plan.append(LevelDecision.from_dict(entry))
        except KeyError as exc:
            raise TraversalError(f"malformed RunPlan payload: missing {exc}")
        return plan

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraversalError(f"malformed RunPlan JSON: {exc}")
        return cls.from_dict(payload)
