"""The machine's speed over time, sampled in a process of its own.

    python3 perfbench/probe.py      (samples until stdin closes)

On a shared machine the CPU's speed can drift by half within minutes and
varies from one CPU to another.  While a run lasts, a sampler process on the
run's CPU times a fixed exact elimination every SAMPLE_PERIOD_S; a stretch
of the run that took ``seconds`` is reported as ``seconds * scale(...)``:
seconds at the reference speed, at which the elimination takes PROBE_REF_S.
The sampler is a process of its own, so nothing the program leaves in its
process (heap size, garbage-collector state, caches) changes what it
measures.  The time its probes take inside a stretch is not counted.
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# What one probe takes on the machine the baseline was measured on.
PROBE_REF_S = 0.001

SAMPLE_PERIOD_S = 0.04

# A stretch shorter than this many samples is scaled by the samples nearest
# to it.
MIN_SAMPLES = 5

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4)
            for j in range(7)] for i in range(7)]


def probe() -> float:
    """Seconds a fixed exact elimination takes right now.

    Gauss-Jordan over Fraction on a fixed 7x7 matrix: pure-Python rational
    arithmetic like the program's, in code no change to the program touches.
    """
    start = time.perf_counter()
    m = [row[:] for row in _MATRIX]
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(len(m)):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return time.perf_counter() - start


def scale(samples, start: float, end: float) -> float:
    """PROBE_REF_S over the median probe time while [start, end] ran.

    samples are (time, probe seconds) with times on the clock of
    ``time.perf_counter``, which all processes of the machine share.
    """
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        mid = (start + end) / 2
        inside = [d for _t, d in sorted(samples, key=lambda s: abs(s[0] - mid))
                  [:MIN_SAMPLES]]
    return PROBE_REF_S / statistics.median(inside)


def stolen(samples, start: float, end: float) -> float:
    """Seconds of [start, end] that the sampler's probes took.

    The sampler shares the CPU, so a short op that a probe happens to
    interrupt would read slow by the probe's length; the parent takes this
    time out of the op's."""
    return sum(max(0.0, min(end, t + d / 2) - max(start, t - d / 2))
               for t, d in samples)


class Sampler:
    """Runs the sampler process from entry to exit; ``samples`` holds what
    it measured.  The process inherits the caller's CPUs."""

    def __init__(self):
        self.samples = []

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        out, _ = self.proc.communicate()
        self.samples = [tuple(map(float, line.split())) for line in out.splitlines()]


def sample():
    samples = []
    while not select.select([sys.stdin], [], [], SAMPLE_PERIOD_S)[0]:
        start = time.perf_counter()
        seconds = probe()
        samples.append((start + seconds / 2, seconds))
    for t, d in samples:
        print(repr(t), repr(d))


if __name__ == "__main__":
    sample()
