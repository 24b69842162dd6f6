"""How fast the host runs Python right now, and times scaled to a fixed speed.

The benchmark runs on a few vCPUs of a shared host.  Other tenants' load
changes its speed by up to 2x, in bursts of a second to a few minutes, so
ten 20-second runs of one workload spread by up to a third in raw time.
``hilden`` is pure Python, so its commands slow down in step with a fixed
Python loop.

``probe()`` times such a loop (integer arithmetic and dict stores, about
2 ms) that creates no container objects while it is timed, so no garbage
collection runs inside it and nothing ``hilden`` does can change its cost.
The benchmark probes next to the commands it times and reports each time at
the reference speed, ``seconds * REF_PROBE_S / probe``: what it would have
taken while a probe takes ``REF_PROBE_S``.  Each run also prints the
median probe and the raw pass time.

Recorded on the 2-vCPU host over 150 s per workload, with a probe before
and after every command, and cut into six 20-second windows: on ``algebra``
the slope of log latency on log probe time was 1.06 (correlation 0.84), and
scaling cut the spread (q3 - q1) / median of the windows from 0.10 to 0.04
for the pass time, 0.19 to 0.11 for the median command and 0.16 to 0.06 for
p90.  On ``batch-verify``, whose work runs in two pool processes while the
probe runs in the parent, the slope was 0.43 (correlation 0.49), and scaling
cut the spreads from 0.14 to 0.08, 0.15 to 0.13 and 0.16 to 0.07.  Loops of
a few hundred microseconds swung more than the commands did.
"""

from __future__ import annotations

import time

# About the probe's time on the 2-vCPU host the benchmark was built on
# (Python 3.11.7) when other tenants leave it alone, so that times at the
# reference speed read close to that host's own.  A fixed constant: it sets
# the scale, nothing else.
REF_PROBE_S = 2.0e-3


def _loop() -> float:
    table: dict[int, int] = {}
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
        table[i & 63] = acc
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the fixed loop takes now: the faster of two timings, because
    one right after the process wakes, or one it is preempted in, can take
    several times as long."""
    return min(_loop(), _loop())


def at_ref_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the reference speed."""
    return seconds * REF_PROBE_S / probe_s
