"""Host speed probe: a fixed reference computation interleaved with the timed loop.

The benchmark runs on a shared 2-vCPU host whose speed moves by up to about
1.5x for seconds to minutes at a time, with other tenants' load; a 26-second
run cannot average that out.  While the timed loop runs, a SIGALRM every
``INTERVAL_S`` runs ``reference_work`` on the same thread and records how long
it took.  The probe is small Hermitian eigenvalue problems and a pure-Python
loop, none of it package code.  (A sum over an 8 MB array, added so that
cache-bound code would find its slowdown in the probe, made it worse: that part
alone slowed 1.6x while the workloads ran at their usual speed.)  The time of a unit divided by the probe's mean duration
during it, times the probe's duration on the reference host (``REFERENCE_S``),
is the unit's time at reference speed.

``clock()`` is ``time.perf_counter`` minus the seconds spent in the probe, so
timings taken with it exclude the probe.  Python runs the handler between
bytecodes of the main thread, never inside a call into numpy or LAPACK.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# Round figure near the probe's median duration (0.9 ms) on a 2-vCPU Intel
# Xeon (Sapphire Rapids) KVM guest.
REFERENCE_S = 1.0e-3

_inputs: tuple = ()
_spent = 0.0
durations: list = []


def _make_inputs() -> tuple:
    a = np.random.default_rng(0).standard_normal((2, 24, 24))
    h = a[0] + 1j * a[1]
    return (h + h.conj().T,)


def reference_work() -> float:
    """A fixed mix of LAPACK calls and interpreted Python, about 1 ms."""
    (matrix,) = _inputs
    total = 0.0
    for _ in range(12):
        total += float(np.linalg.eigvalsh(matrix)[0])
    x = 0
    for i in range(1500):
        x += i * i % 7
    return total + x


def clock() -> float:
    return time.perf_counter() - _spent


def _fire(signum, frame) -> None:
    global _spent
    collecting = gc.isenabled()
    gc.disable()  # a collection of the program's objects is not probe work
    start = time.perf_counter()
    reference_work()
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    durations.append(elapsed)
    _spent += elapsed


def start() -> None:
    global _inputs
    if not _inputs:
        _inputs = _make_inputs()
        reference_work()
    signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
