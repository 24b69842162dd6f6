"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 0..9 --out perfbench/baseline.json

Run from the root of a checkout; it prints each run's metric table as it
goes.  Each (workload, seed) is one ``perfbench/run.py --trace 0`` call; one
``--trace 1`` call per workload (on the first seed) adds the per-layer
numbers.  For every end-to-end metric the
summary holds the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median; the run fails if any answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py call; echoes its metric table and returns its JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    *table, last = out.stdout.strip().splitlines()
    print("\n".join(table), flush=True)
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0..9", help="a range like 0..9")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split(".."))
    seeds = list(range(lo, hi + 1))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    summary = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            res = _run(wl, seed, spec["run_seconds"], 0)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        end_to_end = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / statistics.median(vals), "values": vals}
        traced = _run(wl, seeds[0], spec["run_seconds"], 1)
        summary["workloads"][wl] = {
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
