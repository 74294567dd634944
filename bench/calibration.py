"""Machine-speed calibration of pass times.

On a shared machine the speed of a core can drop by up to 2x for seconds to
a minute at a time, because of load the benchmark does not control. A fixed
kernel (the operation mix of the package's hot loops, in code that no
change to the package touches) is therefore timed in short chunks while a
pass runs: a SIGALRM timer interrupts the pass every
``INTERVAL_S`` seconds and runs one chunk. The pass's wall time, minus the
time spent in chunks, divided by the mean chunk time, is its cost in
calibration units; slowdowns that hit the pass hit the chunks sampled
during it as well, and cancel.

One calibration unit ("cal") is the time of ``CHUNKS_PER_CAL`` chunks.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
SMALL_ITERS = 40           # ~1.4 ms of small-vector steps per chunk
LARGE_REPS = 2             # ~1.6 ms of 1e5-element vector operations per chunk
LARGE_N = 100_000
OBJECT_ITERS = 3000        # ~1.4 ms of Python object and float work per chunk
CHUNKS_PER_CAL = 150       # one cal is 0.25-0.5 s of kernel time
EDGE_CHUNKS = 20           # chunks on each side of a pass that is not sampled

# Seconds per cal at the fastest speed seen on a shared 2-vCPU Intel Xeon
# virtual machine, per kernel mix (large_vectors False/True). Set-up costs
# are converted to seconds with these fixed factors.
REFERENCE_CAL_S = {False: 0.25, True: 0.48}


class _Record:
    __slots__ = ("k", "value")

    def __init__(self, k, value):
        self.k = k
        self.value = value


class Calibrator:
    """``large_vectors`` picks the second half of each chunk: operations on
    1e5-vectors (the schedule solvers' mix) or Python object and scalar work
    (the interpreter-bound mix of the FGM and oracle loops). Each follows the
    slowdowns of its own kind of code more closely than a blend does."""

    def __init__(self, large_vectors: bool = False):
        self.large_vectors = large_vectors
        rng = np.random.default_rng(0)
        self._O = rng.standard_normal((50, 100)) / 3.0
        self._anchor = self._O.mean(axis=0)
        self._x = np.full(100, 0.01)
        self._ks = np.arange(1, 51)
        self._big = np.linspace(0.1, 3.0, LARGE_N)
        self.chunks: list[float] = []   # every chunk time of the current pass
        self.stolen_s = 0.0
        self._busy = False

    def _project(self, v):
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - 1.0
        rho = int(np.nonzero(u - css / self._ks > 0.0)[0][-1])
        return np.maximum(v - css[rho] / (rho + 1.0), 0.0)

    def chunk(self) -> float:
        """Seconds taken by one chunk: accelerated projected-gradient steps
        on a 50 x 100 problem, then either transcendental functions of a
        1e5-vector with fresh temporaries or a loop that builds small
        objects, in code of the benchmark's own."""
        O, anchor, x = self._O, self._anchor, self._x
        t0 = time.perf_counter()
        w = np.full(50, 1.0 / 50)
        v, w_prev, t = w, w, 1.0
        for _ in range(SMALL_ITERS):
            Otv = O.T @ v
            resid = Otv - anchor
            q = float(Otv @ x) - 0.5e-3 * float(resid @ resid)
            g = O @ (x - 1e-3 * resid)
            q + float(np.max(g)) - float(g @ v)
            w = self._project(v + 0.1 * g)
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            v = w + (t - 1.0) / t_new * (w - w_prev)
            w_prev, t = w, t_new
        if self.large_vectors:
            big = self._big
            for _ in range(LARGE_REPS):
                y = np.exp(-big)
                float(np.sum(np.log(y * big + 1.0) ** 2))
        else:
            records, total = [], 0.0
            for k in range(OBJECT_ITERS):
                rec = _Record(k, total)
                total += 0.5 * rec.k + math.sqrt(k)
                records.append(rec)
        return time.perf_counter() - t0

    def _on_alarm(self, _signum, _frame):
        if self._busy:  # a late alarm while a chunk runs
            return
        self._busy = True
        t0 = time.perf_counter()
        self.chunks.append(self.chunk())
        self.stolen_s += time.perf_counter() - t0
        self._busy = False

    def time_pass(self, run_pass, state, sample: bool = True):
        """Run ``run_pass(state)``; return (output, wall seconds, cal seconds).

        Chunks run right before and after the pass and, when ``sample`` is
        set, every INTERVAL_S during it; the wall time excludes the latter.
        Traced passes are not sampled, so that no chunk lands in a span;
        EDGE_CHUNKS on each side stand in for the samples.
        """
        edge = 1 if sample else EDGE_CHUNKS
        self.chunks = [self.chunk() for _ in range(edge)]
        self.stolen_s = 0.0
        if sample:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = run_pass(state)
        finally:
            elapsed = time.perf_counter() - t0
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self.chunks += [self.chunk() for _ in range(edge)]
        return out, elapsed - self.stolen_s, statistics.fmean(self.chunks) * CHUNKS_PER_CAL
