"""Lean functional mirrors vs the timed entries: bit-identical state.

The coherence protocols' ``read_miss_functional`` / ``write_miss_functional``
/ ``llc_eviction_functional`` lean mirrors exist purely for fast-forward
speed.  ``functional_timing`` installs them over the timed entries as the
timing sink of the one socket miss path; the *definition* of correct is
that path with the timed entries left in place, running under the
zero-latency interconnect and memory stubs (the generic fallback), which
is state-exact by construction.  These tests run the same sampled
simulation twice -- once with the protocol's lean mirrors, once with the
mirrors opted out so the timed entries run -- and assert the complete
sampled output (detail-window counters, per-metric estimates, inter-socket
bytes) is bit-identical.  Any
state drift in a lean mirror shifts what the detail windows measure, so
divergence fails loudly here long before it could pass the (much looser)
CI-containment checks.
"""

import pytest

from repro.core.c3d_full_dir import C3DFullDirectoryProtocol
from repro.engines.base import functional_timing
from repro.stats.sampling import SamplingPlan
from repro.system.config import SystemConfig
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.registry import make_workload

SCALE = 1024
#: Four sockets and a 3000-access trace: on two sockets a Shared directory
#: entry already names both, so a mirror that drops a sharer update would
#: leave the same state behind and pass.
NUM_SOCKETS = 4
ACCESSES = 3000
WARMUP = 100

PLAN = SamplingPlan(num_units=4, detail=50, warmup=30, confidence=0.99, seed=9)

#: (protocol, broadcast_filter) pairs that ship lean mirrors.
LEAN_PROTOCOLS = [("baseline", False), ("c3d", False), ("c3d", True)]

_MIRRORS = (
    "read_miss_functional",
    "write_miss_functional",
    "llc_eviction_functional",
)


def _system(protocol: str, broadcast_filter: bool = False) -> NumaSystem:
    config = SystemConfig.quad_socket(
        protocol=protocol, num_sockets=NUM_SOCKETS, cores_per_socket=2,
        broadcast_filter=broadcast_filter,
    ).scaled(SCALE)
    return NumaSystem(config)


def _run_sampled(protocol: str, broadcast_filter: bool, *, timed_entries: bool):
    system = _system(protocol, broadcast_filter)
    if timed_entries:
        # The same opt-out c3d-full-dir declares on its class: with no
        # mirrors to install, fast-forward runs the timed entries.
        for name in _MIRRORS:
            setattr(system.protocol, name, None)
    workload = make_workload(
        "facesim", scale=SCALE, accesses_per_thread=ACCESSES,
        num_threads=system.config.total_cores, seed=13,
    )
    result = Simulator(system, workload, engine="sampled", sample_plan=PLAN).run(
        warmup_accesses_per_core=WARMUP, prewarm=True
    )
    return result, system


@pytest.mark.parametrize("protocol,broadcast_filter", LEAN_PROTOCOLS)
def test_lean_mirrors_match_generic_fallback_bit_for_bit(protocol, broadcast_filter):
    lean, lean_system = _run_sampled(protocol, broadcast_filter, timed_entries=False)
    timed, _ = _run_sampled(protocol, broadcast_filter, timed_entries=True)

    if not broadcast_filter:
        # With the broadcast filter on, a stale private classification can
        # legitimately skip an invalidation (a modelled property of the
        # paper's section IV-D mechanism that pre-dates the engines
        # subsystem and shows up identically on the exact engines), so the
        # SWMR invariant only gates the unfiltered designs here.  The
        # bit-identity assertions below are the point of this test and
        # apply to every case.
        assert lean_system.check_invariants() == []
    assert lean.stats.to_json_dict() == timed.stats.to_json_dict()
    assert lean.accesses_executed == timed.accesses_executed
    assert lean.inter_socket_bytes == timed.inter_socket_bytes
    assert lean.total_time_ns == timed.total_time_ns


def test_protocols_with_lean_mirrors_actually_override():
    """Guard the parametrization above: these designs' mirrors get installed."""
    for protocol, broadcast_filter in LEAN_PROTOCOLS:
        system = _system(protocol, broadcast_filter)
        cls = type(system.protocol)
        with functional_timing(system):
            for name in _MIRRORS:
                entry = getattr(system.protocol, name[: -len("_functional")])
                assert entry.__func__ is vars(cls)[name], (protocol, name)


def test_c3d_full_dir_runs_its_timed_entries_in_fast_forward():
    """c3d-full-dir opts out of the C3D mirrors it inherits."""
    protocol = _system("c3d-full-dir").protocol
    assert isinstance(protocol, C3DFullDirectoryProtocol)
    with functional_timing(protocol.system):
        for name in ("read_miss", "write_miss", "llc_eviction"):
            assert getattr(protocol, name).__func__ is getattr(C3DFullDirectoryProtocol, name)
