"""Load-corrected timing on a shared host.

Other tenants of a shared host slow every instruction stream, by 1.5-3x
for minutes at a time; that time is never the program's own.  The clock
here runs a fixed reference kernel just before and just after each timed
call and, from a ``SIGALRM`` handler, every ``PERIOD_S`` seconds while the
call runs.  The kernel's runs during the call are taken out of the call's
time, and the call's time is divided by the mean time of all these kernel
runs: the host slows the call and the kernel alike, so the ratio keeps the
program's cost and drops the other tenants'.  Multiplied by the kernel's
idle time, ``KERNEL_REF_S``, it reads in seconds again.
"""

from __future__ import annotations

import itertools
import json
import signal
import statistics
import time

import numpy as np
import scipy.linalg

#: About the fastest time of :func:`reference_kernel` on a 2-vCPU Intel
#: Xeon virtual machine (Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
KERNEL_REF_S = 0.0023

#: Wall-clock seconds between two kernel runs inside a timed call.
PERIOD_S = 0.05

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((20, 20)) + 20.0 * np.eye(20)
_EYE = np.eye(20)
_V = _RNG.standard_normal(20)
_DOC = {"regions": [{"id": i, "active_set": list(range(i % 5)),
                     "x": _RNG.standard_normal(12).tolist()} for i in range(12)]}


def reference_kernel() -> float:
    """A fixed piece of work shaped like cfqp's own: LU solves of a small
    system, small numpy arrays, number formatting, JSON and subset
    enumeration in interpreted Python.  It is the benchmark's code, so a
    change to cfqp never changes it."""
    acc = 0.0
    for i in range(36):
        lu = scipy.linalg.lu_factor(_M + i * _EYE, check_finite=False)
        x = scipy.linalg.lu_solve(lu, _V, check_finite=False)
        y = np.concatenate([x[:8], x[8:]])
        keep = np.flatnonzero(np.abs(y) > 0.1)
        z = np.zeros(20)
        z[keep] = y[keep]
        acc += float(z @ x)
        ",".join(map(repr, x.tolist()))
    for _ in range(3):
        doc = json.loads(json.dumps(_DOC))
        subsets = [frozenset(c) for k in range(3)
                   for c in itertools.combinations(range(1, 12), k)]
        acc += len(doc["regions"]) + len(subsets)
    return acc


def corrected(seconds: float, kernel_s: float) -> float:
    """``seconds`` in load-corrected seconds, given the mean kernel time
    measured around and during them."""
    return seconds / kernel_s * KERNEL_REF_S


class LoadClock:
    """Times calls together with the reference kernel (see module doc).

    It installs its ``SIGALRM`` handler for good: an alarm delivered
    after a call ended then finds the handler disarmed, rather than the
    default action, which ends the process."""

    def __init__(self):
        self.spans: list = []  # (start, end) of every kernel run
        self._armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _kernel(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.spans.append((start, time.perf_counter()))

    def _alarm(self, signum, frame) -> None:
        if self._armed:
            self._armed = False  # an alarm inside this run is skipped
            self._kernel()
            self._armed = True

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (its result, its seconds without the
        kernel runs inside it, the mean kernel seconds)."""
        first = len(self.spans)
        self._kernel()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            start = time.perf_counter()
            out = fn(*args)
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False
        self._kernel()
        spans = self.spans[first:]
        inside = sum(e - s for s, e in spans if start <= s and e <= end)
        return out, end - start - inside, statistics.fmean(e - s for s, e in spans)


class PlainClock:
    """The traced runs' clock: wall time only."""

    @staticmethod
    def time(fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - start, None
