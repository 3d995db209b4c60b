"""``functional_timing`` puts back exactly what it replaced.

Inside the context the protocol's lean mirrors stand in for its timed
entries and the interconnect and memory timing is stubbed out.  The
sampled engine measures its windows (forked or the inline last one) after
the context has exited, so an incomplete restore would let a detail window
run a mirror or a zero-latency stub and measure nothing.  These tests check
the restore on a normal exit and when the body raises.
"""

import pytest

from repro.engines.base import functional_timing
from repro.system.config import SystemConfig
from repro.system.numa_system import NumaSystem

_ENTRIES = ("read_miss", "write_miss", "llc_eviction")


def _system(protocol: str) -> NumaSystem:
    config = SystemConfig.quad_socket(
        protocol=protocol, num_sockets=2, cores_per_socket=1
    ).scaled(1024)
    return NumaSystem(config)


def _timing_attributes(system):
    """Every attribute the context patches, as the instances hold them."""
    protocol = system.protocol
    held = {("protocol", name): vars(protocol).get(name) for name in _ENTRIES}
    held["protocol", "_net_send"] = vars(protocol)["_net_send"]
    held["interconnect", "send"] = vars(system.interconnect).get("send")
    for sock in system.sockets:
        for name in ("read_fast", "write_fast"):
            held[f"memory{sock.socket_id}", name] = vars(sock.memory).get(name)
    return held


def _assert_timed(system):
    protocol = system.protocol
    cls = type(protocol)
    for name in _ENTRIES:
        assert name not in vars(protocol), name
        assert getattr(protocol, name).__func__ is getattr(cls, name)
    assert system.interconnect.send.__func__ is type(system.interconnect).send
    for sock in system.sockets:
        memory_cls = type(sock.memory)
        assert sock.memory.read_fast.__func__ is memory_cls.read_fast
        assert sock.memory.write_fast.__func__ is memory_cls.write_fast


def _assert_functional(system):
    protocol = system.protocol
    for name in _ENTRIES:
        assert getattr(protocol, name) == getattr(protocol, name + "_functional")
    assert system.interconnect.send(0.0, 0, 1, None) == 0.0
    assert protocol._net_send(0.0, 0, 1, None) == 0.0
    for sock in system.sockets:
        assert sock.memory.read_fast(0.0, 0) == 0.0
        assert sock.memory.write_fast(0.0, 0) == 0.0


@pytest.mark.parametrize("protocol", ["baseline", "c3d"])
def test_normal_exit_restores_timed_entries_and_timing(protocol):
    system = _system(protocol)
    before = _timing_attributes(system)
    with functional_timing(system):
        _assert_functional(system)
    assert _timing_attributes(system) == before
    _assert_timed(system)


@pytest.mark.parametrize("protocol", ["baseline", "c3d"])
def test_exception_inside_restores_timed_entries_and_timing(protocol):
    system = _system(protocol)
    before = _timing_attributes(system)
    with pytest.raises(RuntimeError, match="inside"):
        with functional_timing(system):
            _assert_functional(system)
            raise RuntimeError("inside")
    assert _timing_attributes(system) == before
    _assert_timed(system)

