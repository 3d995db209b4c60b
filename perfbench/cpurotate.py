"""Spread a timed run evenly over the CPUs the benchmark may use.

On a shared host every CPU is slowed by whatever its neighbours run, and
the CPUs differ: one can run at half speed for minutes while another is
nearly idle.  Left to the scheduler, a single-threaded run stays on the CPU
it started on, so its times depend on where it landed, and two runs of the
same code differ by up to a factor of two.

:func:`rotating_cpus` moves the process to the next allowed CPU every
``interval_s`` (a ``SIGALRM`` interval timer and ``sched_setaffinity``), so
every run spends the same share of its time on each CPU and measures their
average.  The simulation is untouched; only the CPU it runs on changes.  A
forked child keeps the one CPU it was forked on (interval timers are not
inherited).  With fewer than two allowed CPUs, or without
``sched_setaffinity``, it does nothing.
"""

from __future__ import annotations

import itertools
import os
import signal
from contextlib import contextmanager
from typing import List

#: Seconds on one CPU before moving to the next.
INTERVAL_S = 0.1


def allowed_cpus() -> List[int]:
    """The CPUs this process may run on (empty when that cannot be set)."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


@contextmanager
def rotating_cpus(interval_s: float = INTERVAL_S):
    """Move the process round the allowed CPUs every ``interval_s``."""
    cpus = allowed_cpus()
    if len(cpus) < 2:
        yield
        return
    order = itertools.cycle(cpus)

    def move(signum, frame) -> None:
        os.sched_setaffinity(0, {next(order)})

    previous = signal.signal(signal.SIGALRM, move)
    move(None, None)
    signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, cpus)

