"""Host-speed calibration of every timed measurement.

On a shared 2-CPU virtual machine the speed of pure-Python code changes
by up to about 1.6x for seconds at a time, independently per CPU (another
tenant on the same physical core), which moves a raw events/s figure from
run to run far more than a regression bound allows.  Each workload
therefore runs on one CPU (:func:`pin_one_cpu`), brackets its timed
pieces (a throughput segment, a setup, a block of latency samples) with
a fixed pure-Python loop, :func:`probe`, and reports *calibrated* time::

    calibrated = measured * NOMINAL_S / loop_s

-- the time the piece would have taken on a host where the loop takes
:data:`NOMINAL_S`.  ``loop_s`` is the faster of the loops just before and
just after the piece.  The loop uses no program code, so a change to the
program moves the measured time and not the loop, and shows in the
calibrated figure at the same share.  The raw figures are printed next
to the calibrated ones.
"""

from __future__ import annotations

import os
import time

#: Seconds the loop takes on a quiet 2.0 GHz x86 vCPU with Python 3.11.
NOMINAL_S = 1.8e-3


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work on the calling
    thread's CPU: building, sorting and indexing small tuples, like the
    program's inner loops.  Probe when the work being measured is idle, so
    the two do not compete."""
    begun = time.perf_counter()
    for _ in range(8):
        rows = [(i * 0.5, i) for i in range(1_000)]
        rows.sort(reverse=True)
        index = {t: score for score, t in rows}
    del index
    return time.perf_counter() - begun


def factor(before: float, after: float) -> float:
    """Calibrated seconds per measured second of a piece bracketed by
    probes ``before`` and ``after``."""
    return NOMINAL_S / min(before, after)


def pin_one_cpu() -> set:
    """Pin the calling thread, and the processes it starts from now on, to
    one CPU (the highest it may use); returns the affinity to restore."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(home)})
    return home
