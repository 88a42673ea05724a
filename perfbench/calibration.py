"""Host-speed calibration: a fixed reference kernel interleaved with the operations.

The benchmark runs on a few cores of a shared host.  There, the speed of one
single-threaded process switches between two levels every few milliseconds,
and the share of time at the slow level drifts over seconds to minutes, so
the same code runs up to 1.8x slower in one minute than in the next (the
README has the measurements).  Processor time follows wall time, so no clock
of the process hides it.

A calibration chunk is a fixed piece of work that does not touch the
library.  Code is not slowed alike by the host: interpreter-bound work
slows more than dense products, and those more than large LAPACK calls.  So
each workload has the kernel whose slowdown tracks its own (KERNELS): the
"interpreter" kernel mixes Python work with 6x6 factorizations, as in the
interior-point steps of the edge and assumption SDPs, and the "dense"
kernel builds 48x48 products, as the KKT polish does.  Over a minute of
host swings, the log of each workload's operation times moved 1.02x
(edge-systems) and 1.1x (sign-rules) as far as the log of the interpreter
kernel's time.  Relaxation's moved 0.8x as far as the interpreter
kernel's and 0.92x as far as the dense kernel's.

After every operation the benchmark runs chunks for CHUNK_SHARE of the
operation's time, so the chunks sample the host through the same seconds
as the operations.  An operation's slowdown is the mean chunk time within
WINDOW_S of it, divided by the kernel's nominal time; its host-normalised
time is its wall time divided by that slowdown.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: calibration time run after an operation, as a share of its wall time
CHUNK_SHARE = 0.15
#: fewest chunks run after an operation, so millisecond operations are sampled too
MIN_CHUNKS = 2
#: the calibration chunks within this many seconds of an operation rate it
WINDOW_S = 1.0
#: fewest chunks that rate an operation; the window widens until it has them
MIN_WINDOW_CHUNKS = 40

_rng = np.random.default_rng(20220419)
_SMALL = _rng.uniform(-1.0, 1.0, (6, 6))
_SMALL = _SMALL @ _SMALL.T + 6.0 * np.eye(6)
_WIDE = _rng.uniform(-1.0, 1.0, (90, 60))
_WIDE_RHS = _rng.uniform(-1.0, 1.0, 90)
_SQ = _rng.uniform(-1.0, 1.0, (48, 48))
_SQ = _SQ + _SQ.T
_IU = np.triu_indices(48)


def interpreter_chunk() -> float:
    """Python work and small factorizations; returns a value so no step is skipped."""
    acc, table = 0.0, {}
    for i in range(400):
        table[i & 63] = acc
        acc += i * 0.5
    for _ in range(6):
        L = np.linalg.cholesky(_SMALL)
        acc += float(np.linalg.solve(L, _SMALL[0])[0])
        acc += float(np.linalg.eigvalsh(_SMALL)[0])
    acc += float(np.linalg.lstsq(_WIDE, _WIDE_RHS, rcond=None)[0][0])
    return acc


def dense_chunk() -> float:
    """Symmetrised 48x48 products and their upper triangles, as in the KKT polish."""
    acc = 0.0
    E = np.zeros((48, 48))
    for k in range(40):
        E[k, k + 1] = E[k + 1, k] = 1.0
        acc += float((E @ _SQ + _SQ @ E)[_IU][k])
        E[k, k + 1] = E[k + 1, k] = 0.0
    return acc


#: kernel name -> (chunk, seconds of one chunk on the reference host).  The
#: reference host is the baseline's 2-vCPU VM at its fast level, so
#: host-normalised times are seconds on that host.
KERNELS = {
    "interpreter": (interpreter_chunk, 0.8e-3),
    "dense": (dense_chunk, 0.8e-3),
}


class Calibrator:
    """Runs calibration chunks and rates time windows by them."""

    def __init__(self, kernel: str):
        self.chunk, self.nominal_s = KERNELS[kernel]
        self.starts: list[float] = []  # perf_counter at each chunk's start
        self.seconds: list[float] = []  # each chunk's wall time

    def run(self, seconds: float) -> None:
        """Chunks until `seconds` of chunk time, at least MIN_CHUNKS of them."""
        spent, done = 0.0, 0
        while done < MIN_CHUNKS or spent < seconds:
            t0 = time.perf_counter()
            self.chunk()
            dt = time.perf_counter() - t0
            self.starts.append(t0)
            self.seconds.append(dt)
            spent += dt
            done += 1

    def after(self, op_seconds: float) -> None:
        self.run(CHUNK_SHARE * op_seconds)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean chunk time near [t0, t1] over the kernel's nominal time."""
        pad = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.starts, t0 - pad)
            hi = bisect.bisect_right(self.starts, t1 + pad)
            if hi - lo >= min(MIN_WINDOW_CHUNKS, len(self.starts)):
                break
            pad *= 2.0
        return statistics.fmean(self.seconds[lo:hi]) / self.nominal_s

    def normalise(self, t0: float, seconds: float) -> float:
        """Host-normalised time of work that started at t0 and took `seconds`."""
        return seconds / self.slowdown(t0, t0 + seconds)
