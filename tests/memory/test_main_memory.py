"""Tests for the DDR channel timing model."""

import pytest

from repro.memory.main_memory import MemoryChannel, MemoryController


def test_idle_read_latency_is_device_latency():
    controller = MemoryController(latency_ns=50.0, channels=2)
    result = controller.read(0.0, block=0)
    assert result.latency == pytest.approx(50.0)
    assert result.queue_delay == 0.0
    assert controller.reads == 1


def test_back_to_back_reads_on_one_channel_queue():
    controller = MemoryController(latency_ns=50.0, channels=1, channel_bandwidth_gbps=12.8)
    first = controller.read(0.0, block=0)
    second = controller.read(0.0, block=1)
    assert first.queue_delay == 0.0
    assert second.queue_delay == pytest.approx(64 / 12.8)
    assert second.latency == pytest.approx(50.0 + 64 / 12.8)


def test_reads_spread_across_channels_do_not_queue():
    controller = MemoryController(latency_ns=50.0, channels=2)
    a = controller.read(0.0, block=0)   # channel 0
    b = controller.read(0.0, block=1)   # channel 1
    assert a.queue_delay == 0.0
    assert b.queue_delay == 0.0


def test_infinite_bandwidth_never_queues():
    controller = MemoryController(latency_ns=50.0, channels=1, infinite_bandwidth=True)
    for block in range(20):
        result = controller.read(0.0, block=0)
        assert result.queue_delay == 0.0


def test_writes_counted_and_consume_bandwidth():
    controller = MemoryController(latency_ns=50.0, channels=1)
    controller.write(0.0, block=0)
    result = controller.read(0.0, block=1)
    assert controller.writes == 1
    assert result.queue_delay > 0.0


def test_out_of_order_arrival_is_not_charged_queueing():
    channel = MemoryChannel(12.8)
    channel.occupy(100.0)
    # An access that arrives "earlier" (trace skew) is not penalised.
    assert channel.occupy(10.0) == 0.0


def test_utilisation_and_bytes():
    controller = MemoryController(latency_ns=50.0, channels=2)
    for block in range(8):
        controller.read(float(block), block)
    assert controller.bytes_transferred() == 8 * 64
    assert 0.0 < controller.utilisation(1000.0) <= 1.0
    assert controller.utilisation(0.0) == 0.0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        MemoryController(channels=0)
    with pytest.raises(ValueError):
        MemoryController(latency_ns=-1.0)
    with pytest.raises(ValueError):
        MemoryChannel(0.0)


def test_accesses_property():
    controller = MemoryController()
    controller.read(0.0, 0)
    controller.write(0.0, 1)
    assert controller.accesses == 2
