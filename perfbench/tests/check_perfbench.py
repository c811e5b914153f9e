"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests/check_perfbench.py -q

The file is named so that test discovery over the repository does not
collect it: these checks belong to the benchmark, not to the unit suite,
and the workload tests drive ``perfbench/run.py`` as a subprocess with a
one-second budget (one episode per phase); a full pass takes a few
minutes, most of it the KG2 set-up of batch-kron.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Each layer's self-time metric (the runtime layer's self time is its
#: dispatch overhead).
SELF_METRICS = [
    "graph.self_s", "core.self_s", "kernels.self_s", "native.self_s",
    "plan.self_s", "runtime.dispatch_self_s", "service.self_s",
    "stream.self_s", "dist.self_s",
]

#: Deterministic counts every traced record carries; they must repeat
#: exactly for a seed (the sim_* figures ride along in "deterministic").
EXACT_LAYER_METRICS = [
    "gpusim.load_transactions", "gpusim.store_transactions",
    "gpusim.inspections", "gpusim.bottom_up_inspections",
    "gpusim.early_terminations", "gpusim.edges_traversed",
    "core.levels", "core.sharing_degree", "native.calls",
    "native.bytes_computed", "plan.bottom_up_share", "plan.native_share",
    "dist.bytes", "dist.messages", "dist.dense_level_share",
    "service.cache_hit_ratio", "service.plan_cache_hit_ratio",
    "service.batches", "stream.rows_repaired_ratio",
    "stream.recompute_share",
]

sys.path.insert(0, str(BENCH))


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, attempt: int = 0):
    """One run.py process; returns (exit code, last JSON line, record)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode in (0, 1), proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return proc.returncode, result, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counts_repeat_for_a_seed(workload):
    code_a, result_a, record_a = bench(workload, 11, 1, attempt=0)
    code_b, result_b, record_b = bench(workload, 11, 1, attempt=1)
    assert code_a == code_b == 0
    assert result_a["correct"] and result_b["correct"]
    assert record_a["deterministic"] == record_b["deterministic"]
    for name in ("sim_teps", "sim_p50_s", "sim_p99_s"):
        assert name in record_a["deterministic"]
    for name in EXACT_LAYER_METRICS:
        assert (result_a["metrics"][name]["value"]
                == result_b["metrics"][name]["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_and_passes_the_gate(workload):
    code, result, record = bench(workload, 12, 0)
    _, _, reference = bench(workload, 11, 1)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert record["provenance"]["checked_answers"] > 0
    keys = ("sim_teps", "sim_p50_s", "sim_p99_s", "gpusim.edges_traversed")
    assert ([record["deterministic"][k] for k in keys]
            != [reference["deterministic"][k] for k in keys])
    declared = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == declared
    assert all(result["metrics"][k]["value"] > 0 for k in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_unattributed_sum_to_traced_wall(workload):
    _, result, _ = bench(workload, 11, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    parts = sum(metrics[name] for name in SELF_METRICS)
    parts += metrics["obs.unattributed_s"]
    wall = metrics["obs.traced_wall_s"]
    assert wall > 0
    assert abs(parts - wall) <= 0.01 * wall


def test_recorder_self_time_accounting():
    import layers

    rec = layers.Recorder()

    def leaf():
        sum(range(20000))

    traced_leaf = rec.traced(leaf, "native.leaf")
    traced_middle = rec.traced(lambda: (traced_leaf(), traced_leaf()),
                               "core.middle")
    root = rec.begin(layers.ROOT)
    traced_middle()
    traced_leaf()
    rec.end(root)
    summary = layers.summarize(rec)
    assert summary["native.leaf.count"] == 3
    assert summary["core.middle.count"] == 1
    total = sum(summary[f"{layer}.self_s"] for layer in layers.LAYERS)
    total += summary["obs.unattributed_s"]
    assert total == pytest.approx(summary["obs.traced_wall_s"], rel=1e-9)
    assert summary["native.busy_s"] == pytest.approx(
        summary["native.leaf.total_s"])


def test_patches_undo_restores_every_attribute(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_BACKEND", "cext")
    monkeypatch.setenv("REPRO_NATIVE_CACHE",
                       str(ROOT / ".bench_build" / "repro-native"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import layers
    import repro.native as native
    from repro.graph.csr import CSRGraph
    from repro.service.server import BFSServer

    before = (CSRGraph.reverse, BFSServer.submit, native.scatter_or)
    patches = layers.install(layers.Recorder())
    assert (CSRGraph.reverse, BFSServer.submit, native.scatter_or) != before
    patches.undo()
    assert (CSRGraph.reverse, BFSServer.submit, native.scatter_or) == before


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
