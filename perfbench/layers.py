"""In-memory span recorder and the per-layer wrappers of the traced run.

The traced run wraps public functions of each ``repro`` package from
here, so the program under test is never edited and its own
``repro.obs`` tracing and profiling stay off.  Each wrapper records one
span: name, start, end, parent span and the request id current when it
opened.  Spans stay in memory until the run ends.

A span's *layer* is the first dotted component of its name.  A layer's
self time is the duration of its spans minus the part covered by their
child spans; the self time of the ``bench.episode`` root spans is the
time no layer claims (``obs.unattributed_s``).  Summed over all layers
plus the root, self times equal the traced wall time by construction.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT = "bench.episode"

#: Layers that own spans, in report order.
LAYERS = (
    "graph", "core", "kernels", "native", "plan",
    "runtime", "service", "stream", "dist",
)

# Span record slots (lists, not objects: the wrappers sit on hot paths).
_NAME, _START, _END, _PARENT, _REQ, _CHILD, _ROOT = range(7)


class Recorder:
    """Single-threaded span stack plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request_id: Optional[int] = None
        #: Calls into the compiled provider (one per FFI crossing).
        self.ffi_calls = 0
        #: Bytes of the array arguments handed to native ops.
        self.native_bytes = 0

    def begin(self, name: str) -> list:
        stack = self._stack
        idx = len(self.spans)
        if stack:
            parent = stack[-1]
            root = self.spans[parent][_ROOT]
        else:
            parent, root = -1, idx
        span = [name, time.perf_counter(), 0.0, parent, self.request_id,
                0.0, root]
        self.spans.append(span)
        stack.append(idx)
        return span

    def end(self, span: list) -> None:
        span[_END] = end = time.perf_counter()
        self._stack.pop()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += end - span[_START]

    def traced(self, fn: Callable, name: str) -> Callable:
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        return wrapper

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[_NAME], "start": s[_START],
                    "end": s[_END], "parent": s[_PARENT],
                    "request_id": s[_REQ],
                }) + "\n")


def summarize(rec: Recorder) -> Dict[str, float]:
    """Per-name and per-layer totals over spans inside episode roots.

    Returns a flat dict: ``<name>.count``/``.total_s``/``.self_s`` per
    span name, ``<layer>.self_s`` and ``<layer>.busy_s`` (time inside
    the layer, children included, nested same-layer spans counted
    once) per layer, ``obs.unattributed_s`` and ``obs.traced_wall_s``.
    """
    spans = rec.spans
    out: Dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.busy_s"] = 0.0
    for s in spans:
        if spans[s[_ROOT]][_NAME] != ROOT:
            continue  # set-up work between episodes
        dur = s[_END] - s[_START]
        self_s = dur - s[_CHILD]
        name = s[_NAME]
        if name == ROOT:
            out["obs.traced_wall_s"] += dur
            out["obs.unattributed_s"] += self_s
            out["obs.episodes"] += 1
            continue
        layer = name.split(".", 1)[0]
        out[f"{name}.count"] += 1
        out[f"{name}.total_s"] += dur
        out[f"{name}.self_s"] += self_s
        out[f"{layer}.self_s"] += self_s
        parent = s[_PARENT]
        if parent < 0 or spans[parent][_NAME].split(".", 1)[0] != layer:
            out[f"{layer}.busy_s"] += dur
            out[f"{layer}.outer_calls"] += 1
    return dict(out)


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
class Patches:
    """Attribute replacements with exact undo."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]):
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original, own))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _array_bytes(args, kwargs) -> int:
    total = 0
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, tuple):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return total


def install(rec: Recorder) -> Patches:
    """Wrap the public entry points of every layer; returns the undo."""
    import repro.core.bitwise as bitwise
    import repro.core.engine as core_engine
    import repro.dist.engine as dist_engine
    import repro.kernels.workspace as workspace
    import repro.native as native
    import repro.plan.adaptive  # noqa: F401  (registers its session class)
    import repro.service.batcher as batcher
    import repro.stream.overlay as overlay
    import repro.stream.service as stream_service
    from repro.graph.csr import CSRGraph
    from repro.plan.policy import PolicySession
    from repro.runtime import substrates
    from repro.service.server import BFSServer

    patches = Patches()

    def span(name):
        return lambda fn: rec.traced(fn, name)

    # graph: only reverse() calls that build the transpose get a span.
    def reverse_wrapper(fn):
        traced = rec.traced(fn, "graph.reverse")

        @functools.wraps(fn)
        def wrapper(self):
            if self._reverse is None:
                return traced(self)
            return fn(self)

        return wrapper

    patches.replace(CSRGraph, "reverse", reverse_wrapper)

    # core: the engine entry points and GroupBy wherever it is bound.
    patches.replace(core_engine.IBFS, "run", span("core.run"))
    patches.replace(core_engine.IBFS, "run_group", span("core.run_group"))
    for module in (core_engine, batcher, dist_engine):
        patches.replace(module, "group_sources", span("core.groupby"))

    # kernels: the repro.kernels ops as bound in repro.core.bitwise.
    for fn_name in ("bucketed_or_scan", "per_bit_counts", "per_bit_weighted",
                    "round_major_probes", "scatter_or", "scatter_plan",
                    "unpack_lane_bits"):
        patches.replace(bitwise, fn_name, span(f"kernels.{fn_name}"))
    for cls in (workspace.LevelWorkspace, workspace.FullSnapshotWorkspace):
        for meth in ("begin_level", "stash_rows", "snapshot_source",
                     "snapshot_rows", "changed"):
            patches.replace(cls, meth, span(f"kernels.workspace.{meth}"))

    # native: every array op (span plus argument bytes), and a bare
    # counter on each function of the compiled provider (FFI crossings).
    def native_wrapper(name):
        def make(fn):
            traced = rec.traced(fn, f"native.{name}")

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec.native_bytes += _array_bytes(args, kwargs)
                return traced(*args, **kwargs)

            return wrapper

        return make

    for op in ("unique_targets", "scatter_or", "or_scan",
               "round_major_probes", "coalesced_transactions",
               "bottom_up_coalesced", "depth_update", "materialize_depths",
               "hit_scan_depth", "per_bit_counts", "per_bit_weighted"):
        patches.replace(native, op, native_wrapper(op))

    def ffi_counter(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.ffi_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    provider = native._provider()
    if provider is not None:
        for attr, value in list(vars(provider).items()):
            if (callable(value) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == provider.__name__):
                patches.replace(provider, attr, ffi_counter)

    # plan: every per-level decision of every session class.
    pending = list(PolicySession.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for meth in ("initial", "next"):
            if meth in vars(cls):
                patches.replace(cls, meth, span("plan.decide"))

    # runtime: substrate dispatch (the served workloads place serially,
    # behind the stream substrate under churn).
    for cls in (substrates.SerialSubstrate, substrates.StreamSubstrate):
        patches.replace(cls, "run_group", span("runtime.run_group"))

    # service: admission, drain and batch formation.
    patches.replace(BFSServer, "submit", span("service.submit"))
    patches.replace(BFSServer, "drain", span("service.drain"))
    patches.replace(batcher.MicroBatcher, "take_batch",
                    span("service.batch_form"))

    # stream: mutation, publish, fold, delegate rebuild, repair.
    patches.replace(stream_service.DynamicBFSServer, "mutate",
                    span("stream.mutate"))
    patches.replace(substrates.StreamSubstrate, "publish",
                    span("stream.publish"))
    patches.replace(overlay, "apply_batch", span("stream.apply"))
    patches.replace(substrates.SerialSubstrate, "on_epoch_published",
                    span("stream.engine_rebuild"))
    patches.replace(stream_service, "plan_repair", span("stream.plan_repair"))
    patches.replace(stream_service, "repair_depth_matrix",
                    span("stream.repair"))

    # dist: partitioned engine entry points and the exchange codec.
    patches.replace(dist_engine.PartitionedEngine, "run", span("dist.run"))
    patches.replace(dist_engine.PartitionedEngine, "run_group",
                    span("dist.run_group"))
    patches.replace(dist_engine, "encode_updates",
                    span("dist.exchange.encode"))
    patches.replace(dist_engine, "merge_payload", span("dist.exchange.merge"))
    return patches
