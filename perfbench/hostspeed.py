"""How fast the host runs from moment to moment, from a fixed probe that runs no polarspec code.

On a shared machine other tenants slow this process's CPU by up to half:
for a second at a time, and at other times for minutes, with only short
calm spells between. Best-of-k over passes filters out the short
slowdowns; the long ones slow every instance of a long job alike. So
while the passes run, a timer interrupts the process every
PROBE_PERIOD_S and times a short probe, also in the middle of a job. A
job instance's time, less the probes that ran inside it, can then be
scaled by the host's speed while it ran: PROBE_REF_S over the median of
the probes that ran inside it, to the power SLOWDOWN_SHARE. The scaled
time is the instance's time on a host on which the probe takes
PROBE_REF_S. An instance with fewer than
PROBE_MIN_INSIDE probes inside is too short for that, as one probe is a
noisy yardstick; it is scaled by the fastest probe within PROBE_WINDOW_S
around it instead, because the best of several instances of a short job
falls in a calm spell, and the calmest probe nearby measures that spell.

The probe mixes what polarspec's hot paths do: big-integer
multiply-accumulate over a table of ~1200-bit numbers (the coset
recursion), a pointer chase through a Python list (cache misses, as in
the recursion's tables and the SCL list) and a few numpy vector
operations (SCL and the oracles). Its inputs are fixed, so its work is
the same in every run and at every commit.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

import numpy as np

# The probe's median time on an idle 2-CPU Xeon sandbox (Python 3.11,
# numpy 2.4); only the scale of the reported times depends on it.
PROBE_REF_S = 0.0138
PROBE_PERIOD_S = 0.25
PROBE_MIN_INSIDE = 2
PROBE_WINDOW_S = 2.0
# Other tenants slow the probe more than polarspec's jobs: in log terms a
# job slows by about 0.8 of the probe's slowdown. Fitted on 30 runs of
# each workload on a loaded sandbox (median host speed 0.4-1.0); it gave
# the smallest run-to-run spread of the end-to-end times.
SLOWDOWN_SHARE = 0.8


class Probe:
    """A fixed ~15 ms workload, timed every PROBE_PERIOD_S while active.

    Use as a context manager around the timed passes. The timer's signal
    handler runs between bytecodes of whatever runs then, a job included;
    the probe touches no state of the program.
    """

    def __init__(self):
        rng = random.Random(20210225)
        self._big = [rng.getrandbits(1200) for _ in range(8192)]
        self._picks = [rng.randrange(1, 8192) for _ in range(3000)]
        order = list(range(1 << 16))
        rng.shuffle(order)
        self._next = [0] * len(order)  # one random cycle through the list
        for a, b in zip(order, order[1:] + order[:1]):
            self._next[a] = b
        self._words = np.random.default_rng(20210225).integers(0, 1 << 62, 50_000)
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.samples: list[float] = []  # each sample's seconds
        self._busy = False

    def _work(self) -> None:
        big, acc = self._big, 0
        for n, i in enumerate(self._picks):
            acc += (big[i] << (n & 63)) * big[i - 1]
        nxt, i = self._next, 0
        for _ in range(60_000):
            i = nxt[i]
        for _ in range(2):
            mixed = np.bitwise_xor(self._words, self._words[::-1])
            mixed.sort()
            np.cumsum(mixed)

    def sample(self, *_signal) -> None:
        if self._busy:  # a tick that arrives while a sample runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self._work()
        self.starts.append(t0)
        self.samples.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.starts, start),
                     bisect.bisect_right(self.starts, end))

    def inside(self, start: float, end: float) -> float:
        """Seconds the probe ran between start and end. A sample runs
        whole inside an interval timed around it, or whole outside."""
        return sum(self.samples[self._between(start, end)])

    def speed(self, start: float, end: float) -> float:
        """The host's speed during [start, end] relative to the reference
        host (below 1 is slower); a time measured there times this speed
        is the time on the reference host."""
        inside = self.samples[self._between(start, end)]
        if len(inside) >= PROBE_MIN_INSIDE:
            probe = statistics.median(inside)
        else:
            pad = max(0.0, PROBE_WINDOW_S - (end - start)) / 2
            near = self.samples[self._between(start - pad, end + pad)]
            if not near:
                return 1.0
            probe = min(near)
        return (PROBE_REF_S / probe) ** SLOWDOWN_SHARE
