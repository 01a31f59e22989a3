"""Times at a fixed machine speed, from a reference job sampled while timing.

On a shared machine other tenants change how fast a process runs by up to a
half, in stretches from a fraction of a second to minutes, and a process's CPU
time changes with its wall time.  So the benchmark samples the machine's speed
while it times: a fixed reference job runs right before and right after every
child process, and a ``Sampler`` inside each timed process runs it every
``INTERVAL_S`` seconds.  ``scaled`` turns a measured interval into its time at
the nominal speed, at which the reference job takes ``NOMINAL_S``:

    scaled time = sum over the stretches between samples of
                  stretch length * NOMINAL_S / (mean of the two samples around it)

Time spent in the samples themselves is left out.  The job is pure Python of
the kind the package runs (small-integer list arithmetic, tuple keys, dict
updates, big-integer products) and uses nothing outside this file, so a change
to the package never changes its time.  It runs with the garbage collector
paused, so the heap of the process it runs in does not change its time either.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import signal
import time

ROUNDS = 80
# The median time of one reference job on the machine the baseline was
# recorded on, so scaled times read as seconds at that machine's usual speed.
NOMINAL_S = 0.02
INTERVAL_S = 0.125


def _job(rounds: int) -> int:
    rng = random.Random(1)
    p, acc, seen = 3, 0, {}
    for it in range(rounds):
        a = [rng.randrange(p) for _ in range(40)]
        b = [rng.randrange(p) for _ in range(30)]
        c = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    c[i + j] = (c[i + j] + x * y) % p
        b[-1] = 1
        for k in range(len(c) - len(b), -1, -1):
            f = c[k + len(b) - 1]
            if f:
                for j, y in enumerate(b):
                    c[k + j] = (c[k + j] - f * y) % p
        key = tuple(c[:len(b)])
        seen[key] = seen.get(key, 0) + 1
        acc += sum(c) * (3 ** 50 + it) // 7
    return acc + len(seen)


def reference() -> tuple[float, float]:
    """Run the reference job once; returns its (start, duration) on the
    ``time.perf_counter`` clock, which all processes of a machine share."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _job(ROUNDS)
        return t0, time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs the reference job every INTERVAL_S seconds of wall time, from a
    SIGALRM handler, in the process that is being timed."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        self.samples.append(reference())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.samples, f)


class Clock:
    """Scaled times of intervals, from every sample taken around them."""

    def __init__(self, samples) -> None:
        self.samples = sorted((float(s), float(d)) for s, d in samples)
        self.starts = [s for s, _ in self.samples]
        if not self.samples:
            raise ValueError("no speed samples")

    def scaled(self, t0: float, t1: float) -> float:
        """Time of [t0, t1] at the nominal speed, leaving out any samples."""
        samples = self.samples
        i = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        total, at = 0.0, t0
        while at < t1:
            # the stretch from ``at`` to the start of the next sample
            while i < len(samples) and samples[i][0] + samples[i][1] <= at:
                i += 1
            if i < len(samples) and samples[i][0] <= at:
                at = samples[i][0] + samples[i][1]  # inside a sample: skip it
                continue
            end = min(samples[i][0], t1) if i < len(samples) else t1
            around = [d for d in (samples[i - 1][1] if i > 0 else None,
                                  samples[i][1] if i < len(samples) else None)
                      if d is not None]
            total += (end - at) * NOMINAL_S * len(around) / sum(around)
            at = end
        return total
