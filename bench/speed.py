"""Host speed index: fixed reference kernels sampled while a pass runs.

On a shared host the same operation can take up to about 1.8 times as long
from one second to the next: the host switches between a fast and a slow
state that lasts from a fraction of a second to tens of seconds.  A run of
one minute can fall mostly in either state, so raw times of the same code
spread by 20-40% from run to run, whatever the run length.

``SpeedSampler`` fires every ``PERIOD_S`` seconds (SIGALRM, in the worker's
only thread) and times three small kernels that do not use the program:
numpy on a few hundred rows, plain Python, and numpy on a larger array.
The speed index of a sample is the geometric mean of the three kernel
times, each divided by its reference time in ``REF_S``; it is 1 when the
host runs the kernels at reference speed and larger when it is slower.

``normalized_s`` converts an interval of the pass into reference-speed
seconds: the sampler's own time is left out, and each stretch of program
time between two samples is divided by the index of the sample that ends
it.  ``raw_s`` gives the same interval without the division.  The index
divides out the host's speed, not the program's: a change that makes the
program faster or slower shows in full.
"""

import bisect
import math
import signal
import time

import numpy as np

PERIOD_S = 0.025
# kernel times at reference speed: their medians in the host's fast state
# on a 2-vCPU Intel Xeon at 2.1 GHz with numpy 2.4.  They fix the unit of
# normalized times only; any host gives the same ratios between runs.
REF_S = (100e-6, 35e-6, 290e-6)

_ROWS = np.linspace(0.0, 8.0, 256)
_LARGE = np.random.default_rng(0).random(20000)


def _numpy_small() -> None:
    lo = np.zeros_like(_ROWS)
    hi = _ROWS / 0.25
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        big = 0.25 * mid + 0.01 * np.clip(1.0 - np.abs(mid - 2.0), 0.0, 1.0) \
            > _ROWS
        hi = np.where(big, mid, hi)
        lo = np.where(big, lo, mid)


def _python() -> None:
    acc = {}
    for i in range(300):
        acc[i % 17] = acc.get(i % 17, 0) + i * 3 // 7
    sorted(acc.items())


def _numpy_large() -> None:
    np.unique(np.concatenate([_LARGE, _LARGE[::3]]))


KERNELS = (_numpy_small, _python, _numpy_large)


class SpeedSampler:
    """Samples the host speed index every PERIOD_S seconds of a pass."""

    def __init__(self):
        self.end_ns = []       # monotonic_ns at the end of each sample
        self.cost_ns = []      # time each sample took
        self.index = []        # speed index of each sample

    def start(self) -> None:
        for kernel in KERNELS:  # first calls may import or allocate
            kernel()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = time.monotonic_ns()
        log_sum = 0.0
        for kernel, ref in zip(KERNELS, REF_S):
            k0 = time.perf_counter_ns()
            kernel()
            log_sum += math.log((time.perf_counter_ns() - k0) / 1e9 / ref)
        t1 = time.monotonic_ns()
        self.end_ns.append(t1)
        self.cost_ns.append(t1 - t0)
        self.index.append(math.exp(log_sum / len(KERNELS)))

    def raw_s(self, t0_ns: int, t1_ns: int) -> float:
        """Seconds from t0 to t1, less the time spent sampling."""
        lo = bisect.bisect_right(self.end_ns, t0_ns)
        hi = bisect.bisect_right(self.end_ns, t1_ns)
        return (t1_ns - t0_ns - sum(self.cost_ns[lo:hi])) / 1e9

    def normalized_s(self, t0_ns: int, t1_ns: int) -> float:
        """Reference-speed seconds from t0 to t1, less the time sampling."""
        if not self.index:
            return (t1_ns - t0_ns) / 1e9
        lo = bisect.bisect_right(self.end_ns, t0_ns)
        hi = bisect.bisect_right(self.end_ns, t1_ns)
        total = 0.0
        prev = t0_ns
        for k in range(lo, hi):
            total += (self.end_ns[k] - self.cost_ns[k] - prev) / self.index[k]
            prev = self.end_ns[k]
        # the stretch after the last sample inside takes the next sample's
        # index, or the last one when the pass ended first
        tail = self.index[min(hi, len(self.index) - 1)]
        return (total + (t1_ns - prev) / tail) / 1e9

    def median_index(self) -> float:
        ordered = sorted(self.index)
        return ordered[len(ordered) // 2] if ordered else 1.0
