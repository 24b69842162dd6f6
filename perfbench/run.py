"""Benchmark of the ``hilden`` CLI: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload {batch-verify,interactive,algebra} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``perfbench/worker.py``) with ``PYTHONHASHSEED`` fixed and ``hilden``
imported from ``src``; every command pins ``--jobs`` and ``--budget``.  Every
answer is checked against ground truth the benchmark computes itself.

``--trace 0`` prints the end-to-end metrics, every time but ``setup_s`` at
the reference speed of ``perfbench/hostspeed.py``; ``--trace 1`` runs the traced
pass and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted``/``failed`` count report rows.  The exit status is 0 only when
the workload ran to the end, correct or not.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.hostspeed import REF_PROBE_S  # noqa: E402

SETUP_SAMPLES = 7  # set-up is timed at least this many times per run; the median is reported
RUN_TIMEOUT_S = 170  # the whole run, set-up samples included


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _spawn(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it with the set-up
    time (interpreter start, ``import hilden``, input generation)."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    stdin = subprocess.DEVNULL if setup_only else subprocess.PIPE
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=stdin, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, deadline=time.monotonic())  # raises for a worker that failed
        raise RuntimeError("worker ended without finishing set-up")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker until ``deadline`` and return the rest of its output.
    The worker and its pool children are killed if they are still running,
    and the worker is always reaped."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        _kill(proc)
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


def _setup_sample(args, deadline: float) -> float:
    proc, setup = _spawn(args, setup_only=True)
    _finish(proc, deadline)
    return setup


def run(args) -> dict:
    """Run the workload in one worker.  After each pass the worker waits while
    this process times one set-up in a worker that stops after it, so the
    set-up samples are spread over the run instead of falling into one burst
    of the host's load; more are taken at the end up to ``SETUP_SAMPLES``."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    proc, _ = _spawn(args, setup_only=False)
    # a worker that hangs is killed at the deadline, which ends the readline below
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), _kill, (proc,))
    watchdog.start()
    setups = []
    try:
        while (line := proc.stdout.readline()).strip() == "PASS":
            setups.append(_setup_sample(args, deadline))
            proc.stdin.write("\n")
            proc.stdin.flush()
        out = line + _finish(proc, deadline)
    finally:
        watchdog.cancel()
        _kill(proc)
        proc.wait()
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(_setup_sample(args, deadline))
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples"] = len(setups)
    return result


def main() -> int:
    spec = _spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "hilden").is_dir():
        print(f"perfbench: no hilden sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, ValueError, IndexError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are not both "
              f"measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"PYTHONHASHSEED={result['hashseed']} passes={result['passes']} "
          f"commands={result['commands']}")
    for name in sorted(metrics):
        print(f"  {name:44s} {metrics[name]:14.6g} {units[name]}")
    print(f"  {'failed_ratio':44s} {result['failed'] / result['rows']:14.6g} ratio "
          f"({result['failed']} of {result['rows']} rows)")
    if not args.trace:
        print(f"  latency samples: {result['commands']} commands, each the median of "
              f"{result['passes']} passes; setup_s is the median of "
              f"{result['setup_samples']} start-ups")
        print(f"  wall_s, rows_per_s and the latencies are at the reference speed "
              f"(perfbench/hostspeed.py): the probe took {1e3 * result['probe_s']:.3f} ms "
              f"here against {1e3 * REF_PROBE_S:.3f} ms, and a raw pass "
              f"{result['raw_wall_s']:.4g} s")
    else:
        print(f"  spans written to {result['spans_file']} "
              f"({result['binding_sites']} binding sites wrapped)")
    for err in result["errors"]:
        print(f"  wrong: {err}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["rows"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
