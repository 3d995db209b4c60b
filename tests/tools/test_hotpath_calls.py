"""Tier-1 guard on the number of Python and C calls the miss paths make.

Counts every named Python function call (``sys.setprofile`` ``"call"``
events) of one short facesim point per design and divides by the trace
accesses the point consumed.  For a given trace the count is exact -- no
timer is involved -- so a change that adds one call per access moves the
ratio by 1.0 and fails the ceiling on any runner, however noisy.  The same
timed points also count calls into C functions and methods (``"c_call"``
events: ``dict.get``, ``OrderedDict.move_to_end``, ``len`` ...), which is
where per-access bookkeeping that no statistic reads tends to hide.

Two kinds of point are counted: a timed point on the compiled engine, and
a sampled point, whose parent process spends nearly all of its accesses in
functional fast-forward (its forked detail windows are not counted; the
profiler's counts die with the child).  The sampled ceilings are what keep
fast-forward on the one socket miss path: the functional loop enters
``Socket.access_l1_missed`` directly, and a wrapper reinserted between the
two costs about 0.55 calls per consumed access.

Comprehension and generator-expression code objects are skipped (Python
3.12 inlines comprehensions into their enclosing frame, 3.10 and 3.11 do
not), and so are generator functions, whose resumptions are reported as
calls too; neither depends on the number of accesses.  The ceilings are
the counts measured when each path was last cut, plus a margin below the
smallest change they guard.  ``tools/count_bytecodes.py`` breaks the timed
points down per function.
"""

import functools
import inspect
import sys

import pytest

from repro.experiments.common import ExperimentContext, ExperimentSettings
from repro.stats.sampling import SamplingPlan
from repro.system.config import SystemConfig
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.registry import make_workload

#: Short facesim points: the quick scale with a short trace.
SETTINGS = ExperimentSettings(scale=1024, accesses_per_thread=300, warmup_accesses_per_thread=100)

#: Calls per consumed access: the measured 8.38 (baseline) and 14.55 (c3d)
#: on Python 3.11, plus a margin well below one call per access.
CEILINGS = {
    "baseline": 8.65,
    "c3d": 14.8,
}

#: Sampled facesim points: the quick scale, the benchmark's sampling plan
#: and a trace long enough that fast-forward dominates the parent process.
SAMPLED_SCALE = 1024
SAMPLED_ACCESSES = 2000
SAMPLED_PLAN = "units=8,detail=50,warmup=25"

#: Calls per consumed access of the sampled points: the measured
#: 5.26 (baseline) and 7.85 (c3d) on Python 3.11, plus a margin below the
#: 0.55 a wrapper between the functional loop and ``access_l1_missed`` adds.
SAMPLED_CEILINGS = {
    "baseline": 5.5,
    "c3d": 8.1,
}

#: C calls per consumed access of the timed points: the measured 13.34
#: (baseline) and 16.84 (c3d) on Python 3.11, plus a margin under 0.5 -- a
#: per-core LRU structure touched on every access (one ``move_to_end``)
#: adds a full call per access.
C_CALL_CEILINGS = {
    "baseline": 13.7,
    "c3d": 17.2,
}

_SKIPPED_NAMES = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})
_GENERATOR_FLAGS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


def _count_calls(run):
    """``(calls, c_calls, result)`` of ``run()`` under the call-counting profiler."""
    calls = 0
    c_calls = 0

    def profile(frame, event, _arg):
        nonlocal calls, c_calls
        if event == "call":
            code = frame.f_code
            if code.co_name not in _SKIPPED_NAMES and not code.co_flags & _GENERATOR_FLAGS:
                calls += 1
        elif event == "c_call":
            c_calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, c_calls, result


@functools.lru_cache(maxsize=None)
def _timed_counts(protocol: str):
    """``(Python calls, C calls)`` per consumed access of the timed point."""
    # One untraced run first, so lazy imports and first-use set-up do not
    # land in the count.
    ExperimentContext(SETTINGS).run("facesim", protocol)
    context = ExperimentContext(SETTINGS)
    calls, c_calls, record = _count_calls(lambda: context.run("facesim", protocol))
    consumed = record.result.accesses_executed + (
        SETTINGS.warmup_accesses_per_thread * SETTINGS.total_cores
    )
    return calls / consumed, c_calls / consumed


def calls_per_access(protocol: str) -> float:
    return _timed_counts(protocol)[0]


def c_calls_per_access(protocol: str) -> float:
    return _timed_counts(protocol)[1]


def _sampled_simulator(protocol: str) -> Simulator:
    config = SystemConfig.quad_socket(protocol=protocol).scaled(SAMPLED_SCALE)
    workload = make_workload(
        "facesim", scale=SAMPLED_SCALE, accesses_per_thread=SAMPLED_ACCESSES,
        num_threads=config.total_cores, seed=1,
    )
    return Simulator(
        NumaSystem(config), workload, engine="sampled",
        sample_plan=SamplingPlan.from_spec(SAMPLED_PLAN),
    )


def sampled_calls_per_access(protocol: str) -> float:
    _sampled_simulator(protocol).run(prewarm=True)
    simulator = _sampled_simulator(protocol)
    calls, _c_calls, result = _count_calls(lambda: simulator.run(prewarm=True))
    return calls / result.accesses_executed


@pytest.mark.parametrize("protocol", sorted(CEILINGS))
def test_calls_per_access_within_ceiling(protocol):
    value = calls_per_access(protocol)
    assert value <= CEILINGS[protocol], (
        f"facesim/{protocol}: {value:.3f} Python calls per access, "
        f"ceiling {CEILINGS[protocol]}"
    )


@pytest.mark.parametrize("protocol", sorted(C_CALL_CEILINGS))
def test_c_calls_per_access_within_ceiling(protocol):
    value = c_calls_per_access(protocol)
    assert value <= C_CALL_CEILINGS[protocol], (
        f"facesim/{protocol}: {value:.3f} C calls per access, "
        f"ceiling {C_CALL_CEILINGS[protocol]}"
    )


@pytest.mark.parametrize("protocol", sorted(SAMPLED_CEILINGS))
def test_sampled_calls_per_access_within_ceiling(protocol):
    value = sampled_calls_per_access(protocol)
    assert value <= SAMPLED_CEILINGS[protocol], (
        f"sampled facesim/{protocol}: {value:.3f} Python calls per access, "
        f"ceiling {SAMPLED_CEILINGS[protocol]}"
    )
