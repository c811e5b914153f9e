#!/usr/bin/env python3
"""Run one workload of the iBFS benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload batch-kron --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the per-layer metrics: it runs half the time
untraced and half with every layer wrapped (``layers.py``), and reports
the difference as ``obs.trace_overhead``.  Either way the correctness
gate runs after the timed region; a wrong answer makes the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the run's provenance.  The full record, and for traced runs
every span, is written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "perfbench"

SPEC = ROOT / "BENCHMARK.json"
#: Set-up repetitions per run, at least; ``setup_s`` is their median.
SETUP_REPS = 3

#: Set-up runs until this many seconds are spent (at most 15 runs).
SETUP_SECONDS = 2.0


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Point imports at ``src/`` and pin the native provider and its
    compile cache inside the checkout; fail without the sources."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro sources under {src}; run from a full "
            "checkout of the repository"
        )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_NATIVE"] = "1"
    os.environ["REPRO_NATIVE_BACKEND"] = "cext"
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    # The compiler's scratch files stay in the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(src))


def build_native() -> None:
    """Compile (or load from the cache) the C provider before timing."""
    import repro.native as native

    if native.backend_name() != "cext":
        raise SystemExit(
            "perfbench: the C native provider is unavailable: "
            f"{native.disabled_reason()}"
        )


def git_sha():
    """HEAD of the checkout, read from ``.git`` (None outside git)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    """Digest of every ``src/repro`` Python file (works without git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(workload, state, inputs, budget, probe, rec=None,
            min_mutations=0):
    """Repeat episodes, each after one host-speed probe, until ``budget``
    seconds (and the workload's mutation floor) are spent; returns the
    episodes and the number of operations whose answers differed from
    the first episode's."""
    episodes = []
    mismatched = 0
    began = time.perf_counter()
    while True:
        probe()
        if rec is not None:
            calls, nbytes = rec.ffi_calls, rec.native_bytes
        episode = workload.episode(
            state, inputs, len(episodes), rec=rec, keep=not episodes
        )
        if rec is not None:
            episode.det["native.calls"] = rec.ffi_calls - calls
            episode.det["native.bytes_computed"] = rec.native_bytes - nbytes
        if episodes:
            first = episodes[0]
            if (not workload.same_answers(first.answers, episode.answers)
                    or first.det != episode.det):
                mismatched += episode.attempted
            episode.answers = None
        episodes.append(episode)
        # Collect the graph/reverse reference cycles between episodes so
        # the collector's timing does not move peak memory.
        gc.collect()
        mutations = sum(len(e.mutate_walls) for e in episodes)
        if time.perf_counter() - began >= budget and mutations >= min_mutations:
            return episodes, mismatched


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _rate(episodes):
    return _median([e.ops / e.wall for e in episodes])


def end_to_end(untraced, setup_times, setup_host, run_host, wrong,
               mismatched):
    """End-to-end metrics, all from the untraced episodes.  Host times
    are scaled to the reference host speed: ``setup_host`` and
    ``run_host`` are the median probe times of the set-up and measuring
    phases over the reference probe time."""
    det = untraced[0].det
    attempted = sum(e.attempted for e in untraced)
    failed = sum(e.failed for e in untraced) + wrong + mismatched
    return {
        "ops_per_s": _rate(untraced) * run_host,
        "sim_teps": det["sim_teps"],
        "sim_p50_s": det["sim_p50_s"],
        "sim_p99_s": det["sim_p99_s"],
        "ok_ratio": max(attempted - failed, 0) / attempted,
        "setup_s": _median(setup_times) / setup_host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(summary, untraced, traced, build_times, vs_serial):
    """Per-layer metrics measured by the spans: times are seconds per
    traced episode.  Counts and ratios that the episodes report
    themselves (they repeat exactly) are filled in by the caller."""
    import layers
    from workloads import percentile

    n = summary.get("obs.episodes", 1.0)

    def per(key):
        return summary.get(key, 0.0) / n

    calls, levels = traced[0].det["native.calls"], traced[0].det["core.levels"]
    walls = [w for e in untraced for w in e.mutate_walls]
    traced_rate = _rate(traced)
    values = {
        "graph.build_s": _median(build_times),
        "graph.reverse_calls": per("graph.reverse.count"),
        "graph.reverse_s": per("graph.reverse.total_s"),
        "core.run_group_calls": per("core.run_group.count"),
        "core.run_group_s": per("core.run_group.total_s"),
        "core.level_self_s": per("core.run_group.self_s"),
        "core.groupby_s": per("core.groupby.total_s"),
        "kernels.calls": per("kernels.outer_calls"),
        "kernels.busy_s": per("kernels.busy_s"),
        "native.calls_per_level": calls / levels if levels else 0.0,
        "native.busy_s": per("native.busy_s"),
        "plan.decisions": per("plan.decide.count"),
        "plan.busy_s": per("plan.busy_s"),
        "runtime.dispatch_calls": per("runtime.outer_calls"),
        "runtime.dispatch_self_s": per("runtime.self_s"),
        "service.submit_self_s": per("service.submit.self_s"),
        "service.batch_form_s": per("service.batch_form.total_s"),
        "stream.mutate_s": per("stream.mutate.total_s"),
        "stream.mutate_p50_s": percentile(walls, 50),
        "stream.mutate_p90_s": percentile(walls, 90),
        "stream.apply_s": per("stream.apply.total_s"),
        "stream.publish_s": per("stream.publish.total_s"),
        "stream.engine_rebuild_s": per("stream.engine_rebuild.total_s"),
        "stream.repair_s": per("stream.repair.total_s"),
        "dist.run_group_s": per("dist.run_group.total_s"),
        "dist.exchange_calls": (
            per("dist.exchange.encode.count") + per("dist.exchange.merge.count")
        ),
        "dist.exchange_s": (
            per("dist.exchange.encode.total_s")
            + per("dist.exchange.merge.total_s")
        ),
        "dist.vs_serial": vs_serial,
        "obs.trace_overhead": _rate(untraced) / traced_rate - 1.0,
        "obs.unattributed_share": (
            summary.get("obs.unattributed_s", 0.0)
            / summary.get("obs.traced_wall_s", 1.0)
        ),
        "obs.unattributed_s": per("obs.unattributed_s"),
        "obs.traced_wall_s": per("obs.traced_wall_s"),
    }
    for layer in layers.LAYERS:
        if layer != "runtime":
            values[f"{layer}.self_s"] = per(f"{layer}.self_s")
    return values


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(spec, argv)
    prepare_environment()
    build_native()

    import numpy as np

    import layers
    import repro.native as native
    from probe import REFERENCE_SECONDS, Probe
    from repro.graph import benchmarks
    from workloads import WORKLOADS

    host_probe = Probe()
    setup_probes, run_probes = [], []

    def probe():
        run_probes.append(host_probe.run())

    workload = WORKLOADS[args.workload]()
    setup_times, build_times = [], []
    state = None
    while len(setup_times) < SETUP_REPS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < 15
    ):
        state = None
        benchmarks.clear_cache()
        gc.collect()
        setup_probes.append(host_probe.run())
        began = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - began)
        build_times.append(state["build_s"])
    inputs = workload.inputs(state, args.seed)

    traced, rec, vs_serial = [], None, 0.0
    if args.trace:
        untraced, mismatched = measure(
            workload, state, inputs, args.seconds / 2, probe
        )
        rec = layers.Recorder()
        patches = layers.install(rec)
        try:
            traced, traced_mismatch = measure(
                workload, state, inputs, args.seconds / 2, probe, rec=rec
            )
        finally:
            patches.undo()
        mismatched += traced_mismatch
    else:
        untraced, mismatched = measure(
            workload, state, inputs, args.seconds, probe,
            min_mutations=workload.min_mutations,
        )
    probe()
    # Host speed while setting up and while measuring, each from the
    # probes that bracket that phase.
    setup_host = _median(setup_probes + run_probes[:1]) / REFERENCE_SECONDS
    run_host = _median(run_probes) / REFERENCE_SECONDS

    checked, wrong = workload.check(state, inputs, untraced[0])
    if args.trace and hasattr(workload, "vs_serial"):
        vs_serial = workload.vs_serial(state, inputs, untraced)

    everything = untraced + traced
    attempted = sum(e.attempted for e in everything)
    failed = sum(e.failed for e in everything) + wrong + mismatched
    correct = wrong == 0 and mismatched == 0
    if args.trace:
        summary = layers.summarize(rec)
        values = per_layer(summary, untraced, traced, build_times, vs_serial)
        declared = spec["per_layer"]
    else:
        summary = {}
        values = end_to_end(untraced, setup_times, setup_host, run_host,
                            wrong, mismatched)
        declared = spec["end_to_end"]
    det = (traced or untraced)[0].det
    metrics = {
        m["name"]: {
            "value": values[m["name"]] if m["name"] in values
            else det.get(m["name"], 0),
            "unit": m["unit"],
        }
        for m in declared
    }

    mutate_samples = sum(len(e.mutate_walls) for e in untraced)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "native_provider": native.capability_report()["backend"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host_factor_setup": setup_host,
        "host_factor_run": run_host,
        "probe_samples": len(setup_probes) + len(run_probes),
        "ops_per_s_wall": _rate(untraced),
        "setup_s_wall": _median(setup_times),
        "episodes_untraced": len(untraced),
        "episodes_traced": len(traced),
        "sim_latency_samples": det["sim_samples"],
        "mutate_samples": mutate_samples,
        "setup_samples": len(setup_times),
        "checked_answers": checked,
        "wrong_answers": wrong,
        "mismatched_episode_ops": mismatched,
        "generator": (
            "simulated arrival timestamps; the generator is never late on "
            "the host" if "late_submits" in det else "closed loop, one caller"
        ),
        "late_submits": det.get("late_submits", 0),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": provenance,
        "metrics": metrics,
        "deterministic": det,
        "episode_walls": {
            "untraced": [e.wall for e in untraced],
            "traced": [e.wall for e in traced],
        },
        "setup_s": setup_times,
        "probe_s": {"setup": setup_probes, "run": run_probes},
        "summary": summary,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if rec is not None:
        rec.write_jsonl(OUT / f"{stem}-spans.jsonl")

    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
