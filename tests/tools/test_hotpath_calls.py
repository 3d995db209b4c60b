"""Tier-1 guard on the number of Python calls the timed miss path makes.

Counts every named Python function call (``sys.setprofile`` ``"call"``
events) of one short facesim point per design and divides by the trace
accesses the point consumed.  For a given trace the count is exact -- no
timer is involved -- so a change that adds one call per access moves the
ratio by 1.0 and fails the ceiling on any runner, however noisy.

Comprehension and generator-expression code objects are skipped (Python
3.12 inlines comprehensions into their enclosing frame, 3.10 and 3.11 do
not), and so are generator functions, whose resumptions are reported as
calls too; neither depends on the number of accesses.  The ceilings are
the counts measured when the miss path was made allocation-free, plus a
margin well below one call per access.  ``tools/count_bytecodes.py``
breaks the same points down per function.
"""

import inspect
import sys

import pytest

from repro.experiments.common import ExperimentContext, ExperimentSettings

#: Short facesim points: the quick scale with a short trace.
SETTINGS = ExperimentSettings(scale=1024, accesses_per_thread=300, warmup_accesses_per_thread=100)

#: Calls per consumed access: the measured 8.38 (baseline) and 14.55 (c3d)
#: on Python 3.11, plus a margin well below one call per access.
CEILINGS = {
    "baseline": 8.65,
    "c3d": 14.8,
}

_SKIPPED_NAMES = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})
_GENERATOR_FLAGS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


def calls_per_access(protocol: str) -> float:
    # One untraced run first, so lazy imports and first-use set-up do not
    # land in the count.
    ExperimentContext(SETTINGS).run("facesim", protocol)
    context = ExperimentContext(SETTINGS)
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_name not in _SKIPPED_NAMES and not code.co_flags & _GENERATOR_FLAGS:
                calls += 1

    sys.setprofile(profile)
    try:
        record = context.run("facesim", protocol)
    finally:
        sys.setprofile(None)
    consumed = record.result.accesses_executed + (
        SETTINGS.warmup_accesses_per_thread * SETTINGS.total_cores
    )
    return calls / consumed


@pytest.mark.parametrize("protocol", sorted(CEILINGS))
def test_calls_per_access_within_ceiling(protocol):
    value = calls_per_access(protocol)
    assert value <= CEILINGS[protocol], (
        f"facesim/{protocol}: {value:.3f} Python calls per access, "
        f"ceiling {CEILINGS[protocol]}"
    )
