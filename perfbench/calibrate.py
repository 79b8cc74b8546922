"""Host-speed calibration of the end-to-end timings.

On a shared host a co-tenant can slow this process's core by 1.5 to 2.5
times for stretches of seconds to minutes. CPU time slows with wall time
(the process is not descheduled, its core just runs slower), so no clock
removes it, and a 55 s run can fall wholly inside a slow stretch.

A fixed reference routine, which shares no code with coldec, is slowed by
about the same factor as ops that do the same kind of work. Interpreted
work (Python loops and many small numpy calls) and vectorised work (numpy
arithmetic on arrays of thousands of cells) are slowed by different
factors, so there is one routine of each kind and each workload names the
one its ops resemble. Measured on the host the benchmark was written on
(Intel Xeon, 2 cores), over 30 s runs spread across slow and fast
stretches: small-stream's ops/s scale with `interpreted`'s speed to the
power 0.86, gf3-channel's with `vectorised`'s to the power 0.90; scaling
by the matching routine cut the spread of ops/s (interquartile range over
median) from 0.33 to 0.10 and from 0.17 to 0.03.

`Sampler` runs the routine from a SIGALRM handler every `PERIOD_S` while
ops run, so the samples cover the ops evenly in time, long ops included.
An interval is then scaled to the reference speed: its time, less the
handler's own time inside it, times the routine's `REFERENCE_NS` over the
median sample time in and around the interval. `REFERENCE_NS` is about
the routine's time on an undisturbed core of that host, so calibrated
times read as times on that core at full speed; only ratios between runs
on one host matter, so the exact values do not.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.01
# Samples from this far around an interval also count toward its speed:
# slow stretches last far longer, and a short op needs several samples.
MARGIN_NS = 50_000_000
MIN_SAMPLES = 5

_SMALL = np.random.default_rng(0).integers(0, 3, size=(24, 40))
_LARGE = np.random.default_rng(1).integers(0, 3, size=(64, 512))


def interpreted() -> int:
    """An interpreter loop of integer arithmetic and dict updates, then
    eight steps of row reduction over GF(3) on a small numpy array."""
    s, counts = 0, {}
    for i in range(300):
        s = (s * 31 + i) % 1000003
        counts[s & 255] = counts.get(s & 255, 0) + 1
    A, r = _SMALL.copy(), 0
    for c in range(8):
        pivots = np.nonzero(A[r:, c])[0]
        if pivots.size == 0:
            continue
        i = r + pivots[0]
        A[[r, i]] = A[[i, r]]
        factors = A[:, c].copy()
        factors[r] = 0
        A = (A - np.outer(factors, A[r])) % 3
        r += 1
    return s + r


def vectorised() -> int:
    """One row-reduction update over GF(3) on a 64 x 512 array."""
    A = _LARGE
    return int(((A - np.outer(A[:, 5], A[3])) % 3)[0, 0])


REFERENCES = {"interpreted": interpreted, "vectorised": vectorised}
REFERENCE_NS = {"interpreted": 210_000, "vectorised": 340_000}


class Sampler:
    """Times the named reference routine every PERIOD_S from a SIGALRM handler.

    Use as a context manager around the timed work; then `calibrate`
    turns a raw interval into time at the reference speed. The handler
    runs in the main thread between bytecodes, so it never preempts the
    program mid-operation, and its own time is taken out of each interval.
    """

    def __init__(self, kind: str):
        self.reference = REFERENCES[kind]
        self.reference_ns = REFERENCE_NS[kind]
        self.starts = array("q")  # handler entry times
        self.spent = array("q")  # handler durations
        self.lengths = array("q")  # times of the timed reference calls
        self._previous = None
        for _ in range(50):  # let the interpreter specialise it first
            self.reference()

    def _tick(self, signum, frame):
        # The first call brings the routine's code and data back into the
        # core's caches, which the program's large arrays evict; only the
        # second is timed, so the sample measures the core, not the
        # program's memory use. The collector would scan the program's heap.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter_ns()
        self.reference()
        t1 = time.perf_counter_ns()
        self.reference()
        t2 = time.perf_counter_ns()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.spent.append(t2 - t0)
        self.lengths.append(t2 - t1)

    def sample(self, times: int) -> None:
        """Take `times` samples now; call it only between timed intervals."""
        for _ in range(times):
            self._tick(None, None)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrate(self, start_ns, end_ns) -> np.ndarray:
        """Times at the reference speed, in ns, of intervals [start, end).

        Both arguments are arrays of perf_counter_ns readings taken inside
        this sampler's `with` block.
        """
        start = np.asarray(start_ns, np.int64)
        end = np.asarray(end_ns, np.int64)
        starts = np.frombuffer(self.starts, np.int64)
        lengths = np.frombuffer(self.lengths, np.int64)
        if len(starts) < MIN_SAMPLES:
            raise RuntimeError(f"only {len(starts)} speed samples; the run is too short")
        spent = np.concatenate(([0], np.cumsum(np.frombuffer(self.spent, np.int64))))
        inside = spent[np.searchsorted(starts, end)] - spent[np.searchsorted(starts, start)]
        lo = np.searchsorted(starts, start - MARGIN_NS)
        hi = np.searchsorted(starts, end + MARGIN_NS)
        speed = np.empty(len(start))
        for i, (a, b) in enumerate(zip(lo, hi)):
            if b - a < MIN_SAMPLES:  # widen to the nearest samples
                a = min(max(0, (a + b - MIN_SAMPLES) // 2), len(starts) - MIN_SAMPLES)
                b = a + MIN_SAMPLES
            speed[i] = np.median(lengths[a:b])
        return (end - start - inside) * (self.reference_ns / speed)

    def median_ns(self) -> float:
        return float(np.median(np.frombuffer(self.lengths, np.int64)))
