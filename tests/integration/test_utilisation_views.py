"""The link and memory-channel utilisation views, derived from counts on read.

Neither the interconnect nor the memory controller accumulates busy time or
bytes per access: a link's busy time is worked out from the per-route
message counts and a channel's bytes and busy time from its access count.
The expected values below were recorded from the earlier accumulating
implementation for the same fixed sequences, so these tests pin that the
derived views report exactly what was accumulated before.
"""

import pytest

from repro.interconnect.network import Interconnect
from repro.interconnect.packet import MessageClass as M
from repro.interconnect.topology import PointToPointTopology, RingTopology
from repro.memory.main_memory import MemoryController

#: ``(now, src, dst, class)``; includes out-of-order arrivals, a multi-hop
#: route on the ring and a same-socket send (no traffic).
SENDS = [
    (0.0, 0, 1, M.REQUEST), (0.0, 0, 2, M.DATA_RESPONSE), (1.0, 0, 1, M.DATA_RESPONSE),
    (5.0, 1, 3, M.ACK), (5.0, 3, 0, M.WRITEBACK), (2.0, 2, 1, M.BROADCAST_INVALIDATION),
    (40.0, 0, 1, M.DATA_RESPONSE), (3.0, 1, 0, M.REQUEST), (60.0, 3, 1, M.DATA_RESPONSE),
    (61.0, 2, 2, M.REQUEST),
]

#: ``(read or write, now, block)`` on a 2-channel controller.
MEMORY_OPS = [
    ("r", 0.0, 0), ("r", 0.0, 1), ("r", 0.0, 2), ("w", 1.0, 4), ("r", 2.0, 3),
    ("w", 0.5, 5), ("r", 30.0, 6), ("r", 30.0, 8), ("w", 31.0, 7),
]


def _busy_links(network, elapsed_ns):
    return {key: value for key, value in network.link_utilisations(elapsed_ns).items() if value}


@pytest.mark.parametrize("topology, latencies, utilisations", [
    (
        RingTopology(4),
        [20.0, 40.625, 22.75, 40.0, 20.0, 20.0, 20.0, 20.0, 40.0, 0.0],
        {(0, 1): 0.065625, (1, 0): 0.003125, (1, 2): 0.01875, (2, 1): 0.003125,
         (2, 3): 0.003125, (3, 0): 0.03125},
    ),
    (
        PointToPointTopology(4),
        [20.0] * 9 + [0.0],
        {(0, 1): 0.034375, (0, 2): 0.015625, (1, 0): 0.003125, (1, 3): 0.003125,
         (2, 1): 0.003125, (3, 0): 0.015625, (3, 1): 0.015625},
    ),
], ids=["ring", "p2p"])
def test_link_utilisations_match_recorded_values(topology, latencies, utilisations):
    network = Interconnect(topology)
    assert [network.send(*send) for send in SENDS] == pytest.approx(latencies)
    assert _busy_links(network, 200.0) == pytest.approx(utilisations)
    assert network.busiest_link_utilisation(200.0) == pytest.approx(max(utilisations.values()))
    assert network.busiest_link_utilisation(0.0) == 0.0


def test_infinite_bandwidth_links_are_never_busy():
    network = Interconnect(RingTopology(4), infinite_bandwidth=True)
    for send in SENDS:
        network.send(*send)
    assert network.messages_sent == 9
    assert _busy_links(network, 200.0) == {}
    assert network.busiest_link_utilisation(200.0) == 0.0


def test_reset_counters_restarts_link_busy_time():
    network = Interconnect(RingTopology(4))
    for send in SENDS:
        network.send(*send)
    network.reset_counters()
    for send in SENDS[:3]:
        network.send(*send)
    assert _busy_links(network, 100.0) == pytest.approx({(0, 1): 0.06875, (1, 2): 0.03125})


@pytest.mark.parametrize("infinite, latencies, utilisation", [
    (False, [50.0, 50.0, 55.0, 59.0, 53.0, 50.0, 50.0, 55.0, 50.0], 0.225),
    (True, [50.0] * 9, 0.0),
], ids=["finite", "infinite"])
def test_memory_utilisation_and_bytes_match_recorded_values(infinite, latencies, utilisation):
    controller = MemoryController(
        latency_ns=50.0, channels=2, channel_bandwidth_gbps=12.8, infinite_bandwidth=infinite,
    )
    observed = [
        (controller.read_fast if op == "r" else controller.write_fast)(now, block)
        for op, now, block in MEMORY_OPS
    ]
    assert observed == pytest.approx(latencies)
    assert controller.bytes_transferred() == 576
    assert controller.utilisation(100.0) == pytest.approx(utilisation)
    assert controller.utilisation(0.0) == 0.0
    assert (controller.reads, controller.writes) == (6, 3)
