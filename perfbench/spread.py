#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

From the repository root::

    python3 perfbench/spread.py --workload churn-mixed --seeds 1-10 --seconds 15

For every metric it prints the median over the seeds and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``)
as a share of that median, next to the bound ``BENCHMARK.json`` fixes.
Runs are sequential; each is a separate ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q = statistics.quantiles(vals, n=4)
            share = (q[2] - q[0]) / abs(median)
        else:
            share = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and share > bound / 3:
            flag = "  above a third of the bound"
        print(f"{name:32s} median={median:.6g} iqr/median={share:.4f} "
              f"bound={bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
