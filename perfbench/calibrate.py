"""Machine-speed calibration: a fixed reference kernel timed during the run.

The benchmark runs on a few cores of a shared host whose speed drifts by
±20 % over seconds to minutes, and now and then runs a third faster for
a while.  Uncalibrated, that moved the median pass time of 28-s runs by
18-46 % (quartile distance over median, 10 runs).  This module measures
the machine's speed while the workload runs, so that the end-to-end
times can be reported at one nominal machine speed.

The reference kernel does not touch ``oblique_mv``: it is a frozen mix of
the three kinds of work the workloads do, each about a third of its
time — a projected Euler loop on a ball with particle-major path storage
(array-bound), a loop of small-array numpy calls (call-overhead-bound)
and CSV row formatting (interpreter-bound).  No change to the program can
change its cost.

``SpeedSampler`` runs the kernel from a ``SIGALRM`` handler every half
second while a pass runs, records each sample, and keeps the time its
handler took so the pass's wall time can exclude it.  A pass's
calibration factor is ``(REFERENCE_S / median(samples)) ** EXPONENT``
over the samples taken during it, and its calibrated time is its measured
time multiplied by it.  Because
the factor does not depend on the program, it cannot favour one commit
over another; it only narrows the spread between runs.  ``EXPONENT`` is
the slope of log pass time on log kernel time over 41 pilot runs
(0.61 for ``ball_projected``, 0.71 for the ``converge`` ladder alone and
0.68 for ``cli_modes`` without it): the workloads gain less than the
small kernel when the host runs fast, so a full correction (exponent 1)
over-corrects those runs.
"""

from __future__ import annotations

import csv
import io
import signal
import statistics
import time

import numpy as np

# Median kernel time on the 2-vCPU machine the benchmark was calibrated on
# (Intel Xeon, Python 3.11.7, numpy 2.4.6, one BLAS thread).  It only sets
# the scale of the calibrated figures; the comparison between two commits
# does not depend on it.
REFERENCE_S = 0.045
EXPONENT = 0.7
SAMPLE_INTERVAL_S = 0.5

_rng = np.random.default_rng(20220722)
_INCREMENTS = 0.03 * _rng.standard_normal((512, 48, 2))
_SMALL = _rng.standard_normal((128, 2))
_ROWS = _rng.standard_normal((1800, 4)).tolist()


def _euler():
    particles, steps = _INCREMENTS.shape[:2]
    X = np.zeros((particles, 2))
    states = np.empty((particles, steps + 1, 2))
    reflection = np.zeros((particles, steps + 1, 2))
    states[:, 0] = X
    for k in range(steps):
        Y = 0.99 * X + _INCREMENTS[:, k]
        outside = np.linalg.norm(Y, axis=1) > 0.5
        w = Y[outside]
        lo, hi = np.zeros(len(w)), np.ones(len(w))
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            above = np.sum(w**2 / (1.0 + mid[:, None]) ** 2, axis=1) > 0.25
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        X = Y.copy()
        X[outside] = w / (1.0 + hi[:, None])
        states[:, k + 1] = X
        reflection[:, k + 1] = reflection[:, k] + (Y - X)
    return float(states[:, -1].sum() + reflection[:, -1].sum())


def _small_calls():
    X = _SMALL.copy()
    for _ in range(900):
        n = np.linalg.norm(X, axis=1)
        X = X + 0.001 * (X / np.maximum(n, 1.0)[:, None]) - 0.0005 * X
    return float(X.sum())


def _csv_rows():
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i, r in enumerate(_ROWS):
        writer.writerow([i, 0, f"{r[0]:.17g}", f"{r[1]:.17g}", f"{r[2]:.17g}", f"{r[3]:.17g}"])
    return len(buf.getvalue())


def reference_kernel():
    """Run the reference kernel once; return its wall seconds."""
    start = time.perf_counter()
    _euler()
    _small_calls()
    _csv_rows()
    return time.perf_counter() - start


class SpeedSampler:
    """Reference-kernel samples taken from a timer while passes run."""

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0          # time spent in the handler, all passes
        self._busy = False
        reference_kernel()            # warm-up: first-call costs, caches

    def sample(self):
        self.samples.append(reference_kernel())

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.sample()
        finally:
            self.handler_s += time.perf_counter() - start
            self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)   # an alarm already in flight is dropped


def factor(samples):
    """Calibrated seconds per measured second, from reference-kernel samples."""
    return (REFERENCE_S / statistics.median(samples)) ** EXPONENT
