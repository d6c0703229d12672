"""Host-speed normalization of measured times.

On a shared host the CPU speed drifts, by up to 2x within tens of
seconds, and the two cores of a small virtual machine drift together only
loosely.  So the benchmark samples the speed of the very thread it
times: a timer signal runs a fixed pure-Python reference slice every
``INTERVAL_S``, and a measured interval is rescaled by the median slice
duration around it:

    normalized = (raw - slice time spent inside the interval) * REF_SLICE_S / median slice

``REF_SLICE_S`` is the slice's duration at the speed the benchmark was
defined at, so normalized times are seconds at that speed.  Only the
standard ``time``, ``signal`` and ``bisect`` modules are imported here,
so a setup measurement that imports this first still imports the
library cold.
"""

from __future__ import annotations

import bisect
import signal
import time

REF_LOOPS = 4000
REF_SLICE_S = 2.5e-4
INTERVAL_S = 0.05
# slices this far outside an interval still describe its speed
PAD_S = 0.25

clock = time.perf_counter


def reference_slice() -> float:
    """Duration of one fixed slice of pure-Python work."""
    t = clock()
    s = 0
    for j in range(REF_LOOPS):
        s += j * j % 7
    return clock() - t


def _median(values) -> float:
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2


def speed_factor(n: int = 5) -> float:
    """How much slower than nominal the host runs now (median of n slices)."""
    return _median(reference_slice() for _ in range(n)) / REF_SLICE_S


class SpeedSampler:
    """Samples the host speed on the calling thread while in a ``with`` block.

    Needs the main thread of a process where nothing else uses SIGALRM.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.slices: list[float] = []
        self._old = None

    def _sample(self, signum, frame) -> None:
        self.starts.append(clock())
        self.slices.append(reference_slice())

    def __enter__(self) -> "SpeedSampler":
        self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(None, None)

    def normalize(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in seconds at the nominal speed."""
        starts, slices = self.starts, self.slices
        a = bisect.bisect_left(starts, t0)
        b = bisect.bisect_left(starts, t1)
        inside = sum(slices[a:b])
        lo = bisect.bisect_left(starts, t0 - PAD_S)
        hi = bisect.bisect_left(starts, t1 + PAD_S)
        # the block opens and closes with a sample, so one is always near
        near = slices[lo:hi] or slices[max(0, a - 1):a + 1]
        return (t1 - t0 - inside) * REF_SLICE_S / _median(near)
