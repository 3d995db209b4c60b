"""Tests for the inter-socket network (links, packets, traffic accounting)."""

import pytest

from repro.interconnect.link import Link
from repro.interconnect.network import Interconnect
from repro.interconnect.packet import (
    CONTROL_PACKET_BYTES,
    DATA_PACKET_BYTES,
    MessageClass,
    Packet,
    PacketKind,
)
from repro.interconnect.topology import PointToPointTopology, RingTopology


def make_network(n=4, topology="ring", **kwargs):
    topo = RingTopology(n) if topology == "ring" else PointToPointTopology(n)
    return Interconnect(topo, **kwargs)


def test_packet_sizes_follow_table_ii():
    assert CONTROL_PACKET_BYTES == 16
    assert DATA_PACKET_BYTES == 80
    assert MessageClass.REQUEST.kind is PacketKind.CONTROL
    assert MessageClass.DATA_RESPONSE.kind is PacketKind.DATA
    assert MessageClass.WRITEBACK.kind is PacketKind.DATA
    assert Packet.control(0, 1, MessageClass.REQUEST).size_bytes == 16
    assert Packet.data(0, 1, MessageClass.DATA_RESPONSE).is_data


def test_send_latency_is_hops_times_hop_latency():
    assert make_network(4, hop_latency_ns=20.0).send(
        0.0, 0, 1, MessageClass.REQUEST
    ) == pytest.approx(20.0)
    assert make_network(4, hop_latency_ns=20.0).send(
        0.0, 0, 2, MessageClass.REQUEST
    ) == pytest.approx(40.0)


def test_same_socket_send_is_free_and_untracked():
    network = make_network()
    assert network.send(0.0, 1, 1, MessageClass.REQUEST) == 0.0
    assert network.bytes_sent == 0
    assert network.messages_sent == 0


def test_traffic_accounting_by_class():
    network = make_network()
    network.send(0.0, 0, 1, MessageClass.REQUEST)
    network.send(0.0, 1, 0, MessageClass.DATA_RESPONSE)
    assert network.bytes_sent == 16 + 80
    assert network.control_bytes() == 16
    assert network.data_bytes() == 80
    assert network.messages_by_class[MessageClass.REQUEST] == 1


def test_round_trip_combines_request_and_response():
    network = make_network(2, topology="p2p", hop_latency_ns=20.0)
    latency = network.round_trip(0.0, 0, 1)
    assert latency == pytest.approx(40.0)
    assert network.round_trip(0.0, 1, 1) == 0.0


def test_broadcast_reaches_every_other_socket():
    network = make_network(4)
    latency = network.broadcast(0.0, 0)
    # Furthest socket on a 4-ring is 2 hops away; request + ack = 4 hops,
    # plus a little link serialisation for packets sharing the first hop.
    assert latency >= 4 * 20.0
    assert latency < 4 * 20.0 + 5.0
    assert network.messages_by_class[MessageClass.BROADCAST_INVALIDATION] == 3
    assert network.messages_by_class[MessageClass.ACK] == 3


def test_zero_latency_idealisation():
    network = make_network(4, zero_latency=True)
    assert network.send(0.0, 0, 2, MessageClass.REQUEST) == 0.0
    assert network.bytes_sent > 0  # traffic still counted


def test_link_queueing_and_infinite_bandwidth():
    # One 1-byte/ns link, no hop latency: a send's latency is its queueing.
    network = make_network(2, topology="p2p", hop_latency_ns=0.0, link_bandwidth_gbps=1.0)
    data = MessageClass.DATA_RESPONSE  # 80 bytes
    assert network.send(0.0, 0, 1, data) == 0.0
    assert network.send(0.0, 0, 1, data) == pytest.approx(80.0)
    assert network.send(10.0, 0, 1, data) > 0.0
    fast = make_network(2, topology="p2p", hop_latency_ns=0.0, link_bandwidth_gbps=1.0,
                        infinite_bandwidth=True)
    for _ in range(3):
        assert fast.send(0.0, 0, 1, data) == 0.0
    with pytest.raises(ValueError):
        Link(0, 1, 0.0)


def test_link_out_of_order_arrival_not_charged():
    network = make_network(2, topology="p2p", hop_latency_ns=0.0, link_bandwidth_gbps=1.0)
    network.send(100.0, 0, 1, MessageClass.DATA_RESPONSE)
    assert network.send(1.0, 0, 1, MessageClass.DATA_RESPONSE) == 0.0


def test_reset_counters():
    network = make_network()
    network.send(0.0, 0, 1, MessageClass.REQUEST)
    network.reset_counters()
    assert network.bytes_sent == 0
    assert network.messages_sent == 0
    assert network.link_bytes() == 0


def test_link_utilisation_bounds():
    network = make_network()
    for _ in range(10):
        network.send(0.0, 0, 1, MessageClass.DATA_RESPONSE)
    utilisations = network.link_utilisations(1000.0)
    assert all(0.0 <= value <= 1.0 for value in utilisations.values())
    assert network.busiest_link_utilisation(1000.0) > 0.0
