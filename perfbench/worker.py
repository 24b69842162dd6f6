"""One workload in a fresh interpreter: import ``hilden``, build the inputs,
then drive ``hilden.cli.main`` in a closed loop with one client.

Run by ``perfbench/run.py`` from the checkout root as
``python3 -m perfbench.worker --workload W --seed N --seconds S --trace T``,
with ``PYTHONPATH=src`` and a fixed ``PYTHONHASHSEED``.  It prints ``READY``
once set-up is done (the parent times set-up up to that line) and, last, one
JSON line of measurements.  ``--setup-only`` stops after ``READY``.  In a
timed run it prints ``PASS`` after each pass and waits for a line on
standard input before it goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_hilden():
    """The ``hilden`` modules to trace, imported from this checkout's ``src``."""
    import hilden
    from hilden import braids, cli, homology, perms, presentations, spheremcg, words

    src = (ROOT / "src").resolve()
    if Path(hilden.__file__).resolve().parent.parent != src:
        raise SystemExit(f"hilden imported from {hilden.__file__}, not from {src}")
    return cli, [words, perms, braids, spheremcg, presentations, homology, cli, hilden]


def _jobs_argv(argv: list[str], jobs: int) -> list[str]:
    out = list(argv)
    out[out.index("--jobs") + 1] = str(jobs)
    return out


# Commands that start within this many seconds of a probe share the probes
# around them; a longer command gets a probe of its own on each side.
PROBE_EVERY_S = 0.2


def run_pass(cli, cmds: list[dict], jobs: int | None = None) -> dict:
    """Run every command once; returns per-command latencies at the reference
    speed (``perfbench/hostspeed.py``), each scaled by the mean of the probes
    just before and just after it, the raw pass time, and the correctness
    tally."""
    from perfbench.hostspeed import at_ref_speed, probe
    from perfbench.workloads import check

    raw: list[float] = []
    probes: list[tuple[int, float]] = []  # (index of the next command, probe seconds)
    rows = failed = 0
    errors: list[str] = []
    t_pass = time.perf_counter()
    t_probe = -math.inf
    for i, cmd in enumerate(cmds):
        if time.perf_counter() - t_probe >= PROBE_EVERY_S:
            probes.append((i, probe()))
            t_probe = time.perf_counter()
        argv = cmd["argv"] if jobs is None else _jobs_argv(cmd["argv"], jobs)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)  # looked up per call, so a traced main is seen
        raw.append(time.perf_counter() - t0)
        try:
            report = json.loads(buf.getvalue())
        except ValueError:
            report = None
        attempted, bad, err = check(cmd["expect"], code, report)
        rows += attempted
        failed += bad
        if err:
            errors.append(f"{' '.join(argv[:-6])}: {err}")
    probes.append((len(cmds), probe()))
    raw_wall = time.perf_counter() - t_pass

    lat, k = [], 0
    for i, dt in enumerate(raw):
        while probes[k + 1][0] <= i:
            k += 1
        lat.append(at_ref_speed(dt, (probes[k][1] + probes[k + 1][1]) / 2))
    verify_s = sum(t for t, cmd in zip(lat, cmds) if cmd["argv"][0] == "verify")
    return {"wall_s": sum(lat), "lat_s": lat, "verify_s": verify_s, "raw_wall_s": raw_wall,
            "probe_s": statistics.median(p for _, p in probes),
            "rows": rows, "failed": failed, "errors": errors}


def _peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus ``jobs`` times that of the largest pool
    child: an upper bound on the combined peak, since pool workers coexist."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * child) / 1024.0


def measure(cli, cmds: list[dict], seconds: float, jobs: int) -> dict:
    passes = []
    busy = 0.0
    while busy < seconds:
        passes.append(run_pass(cli, cmds))
        busy += passes[-1]["raw_wall_s"]
        # wait while the parent times a set-up, so that it runs on an idle machine
        print("PASS", flush=True)
        sys.stdin.readline()
    # Each command's latency is its median over the passes, so the percentiles
    # do not shift with the number of passes that fit in the run.
    lat = [statistics.median(p["lat_s"][i] for p in passes) for i in range(len(cmds))]
    return {
        "passes": len(passes),
        "commands": len(cmds),
        "rows": sum(p["rows"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]][:5],
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "probe_s": statistics.median(p["probe_s"] for p in passes),
        "metrics": {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "rows_per_s": statistics.median(p["rows"] / p["wall_s"] for p in passes),
            "cmd_p50_ms": 1e3 * statistics.median(lat),
            "cmd_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[-1],
            "peak_rss_mb": _peak_rss_mb(jobs),
        },
    }


def traced(cli, modules, cmds: list[dict], out_path: Path) -> dict:
    """An untraced --jobs 2 pass over the verify commands, then a traced
    --jobs 1 pass between two untraced ones, whose mean is the reference for
    the tracing overhead and for the pool's speed-up."""
    from perfbench.trace import Tracer

    verify_cmds = [c for c in cmds if c["argv"][0] == "verify"]
    pooled = run_pass(cli, verify_cmds, jobs=2) if verify_cmds else None
    before = run_pass(cli, cmds, jobs=1)
    tracer = Tracer()
    sites = tracer.install(modules)
    try:
        spanned = run_pass(cli, cmds, jobs=1)
    finally:
        tracer.uninstall()
    after = run_pass(cli, cmds, jobs=1)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out_path)
    metrics = tracer.summary()
    metrics["presentations.verify.jobs_speedup"] = (
        (before["verify_s"] + after["verify_s"]) / 2 / pooled["verify_s"] if pooled else 0.0)
    metrics["trace.overhead_ratio"] = spanned["wall_s"] / ((before["wall_s"] + after["wall_s"]) / 2)
    runs = [r for r in (pooled, before, spanned, after) if r]
    return {
        "passes": len(runs),
        "commands": sum(len(r["lat_s"]) for r in runs),
        "rows": sum(r["rows"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]][:5],
        "metrics": metrics,
        "spans_file": str(out_path.relative_to(ROOT)),
        "binding_sites": sites,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from perfbench.workloads import JOBS, commands

    cli, modules = _import_hilden()
    cmds = commands(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        out = ROOT / "perfbench" / "out" / f"spans-{args.workload}.tsv.gz"
        result = traced(cli, modules, cmds, out)
    else:
        result = measure(cli, cmds, args.seconds, JOBS)
    result["hashseed"] = os.environ.get("PYTHONHASHSEED")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
