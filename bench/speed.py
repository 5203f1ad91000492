"""A machine-speed index sampled all through a run.

On a shared host the same work runs at speeds up to 1.6x apart, in slow
and fast phases that last from seconds to minutes, and process CPU time
swings with wall time.  A run's median then says more about the phase it
fell in than about the program.  To take that out, a ``SIGALRM`` timer
interrupts the run every ``PERIOD`` seconds and times a fixed reference
kernel: interpreter loops, small-array NumPy calls and small LAPACK and
NNLS solves, like the program's hot loops, using nothing of the program.
A timing is reported scaled to the speed at which the kernel takes
``REF_S``:

    seconds = (t1 - t0 - kernel time inside [t0, t1]) * REF_S / kernel mean

where the kernel mean is taken over the ticks inside the interval, widened
to at least ``MIN_TICKS`` ticks around it.  A change to the program moves
the scaled time as it moves the wall time; a change of the host's speed
moves the kernel too and cancels.  The handler runs between bytecodes of
the main thread, so one process still does one thing at a time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.optimize

PERIOD = 0.1      # seconds between ticks
REPS = 20         # repetitions of the kernel's loop part
MIN_TICKS = 7     # ticks averaged for an interval shorter than a few periods
# the kernel's median time in benchmark runs on the 2-core host the
# benchmark was built on, so that scaled figures read about as that host's
# wall-clock seconds
REF_S = 1.2e-3

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((32, 64))
_B = _rng.standard_normal((64, 32))
_V = _rng.standard_normal(64)
_E = np.abs(_rng.standard_normal((4, 50))) + 0.1
_X = np.abs(_rng.standard_normal((3, 50)))
_AUG = np.vstack([_E.T, 1e3 * np.ones((1, 4))])


def kernel():
    """Interpreter loops, small products and ufuncs, small LAPACK and NNLS solves.

    The mix follows the program's hot loops; no part of it calls the program.
    """
    s = 0.0
    for _ in range(REPS):
        s += sum([j * j for j in range(100)])
        s += float(np.maximum(_A @ _B, 0.0).sum())
        w = _V * 2.0 + 1.0
        s += float(np.sqrt(np.dot(w, w))) + float(np.clip(w, 0.0, 3.0).sum())
    for x in _X:
        s += float(np.linalg.svd(_E, full_matrices=False)[1][0])
        s += float(np.linalg.lstsq(_E.T, x, rcond=None)[0].sum())
        s += float(scipy.optimize.nnls(_AUG, np.append(x, 1e3))[1])
        c = (_E @ x) / (np.linalg.norm(_E, axis=1) * np.linalg.norm(x))
        s += float(np.arccos(np.clip(c, -1.0, 1.0)).min())
    return s


class SpeedIndex:
    """Ticks of the reference kernel, and timings scaled by them."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def kernel_s(self):
        """Every tick's kernel time, in order."""
        return [e - s for s, e in zip(self.starts, self.ends)]

    def seconds(self, t0, t1):
        """Scaled length of [t0, t1], whose every tick must already be recorded."""
        starts, ends = self.starts, self.ends
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        own = sum(min(ends[i], t1) - starts[i] for i in range(lo, hi))
        if lo > 0 and ends[lo - 1] > t0:
            own += min(ends[lo - 1], t1) - t0
        a, b = lo, hi
        while b - a < MIN_TICKS and (a > 0 or b < len(starts)):
            if a > 0:
                a -= 1
            if b < len(starts) and b - a < MIN_TICKS:
                b += 1
        if b == a:
            raise RuntimeError("no speed ticks recorded")
        mean = statistics.fmean(ends[i] - starts[i] for i in range(a, b))
        return (t1 - t0 - own) * REF_S / mean
