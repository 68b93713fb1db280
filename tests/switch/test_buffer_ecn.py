"""Unit tests for shared buffer accounting and ECN marking."""

import pytest

from repro.net.node import Device
from repro.net.packet import DATA_HEADER_BYTES, FlowKey, data_packet
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB
from repro.switch.switch import Switch
from tests.net.test_port import drop_log


WIRE = data_packet(FlowKey(0, 1), 0, 1000).wire_bytes


class Sink(Device):
    def receive(self, packet, in_port):
        pass


def busy_port(buffer):
    """A switch egress port over ``buffer`` that is already serializing
    one packet, so everything enqueued next has to wait in the pool."""
    sim = Simulator()
    switch = Switch(sim, "sw", lb=EcmpLB(), buffer=buffer,
                    ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))
    port = switch.add_port(1e9, 0)
    port.connect(Sink(sim, "sink"))
    assert port.enqueue(data_packet(FlowKey(0, 1), 0, 1000))
    assert buffer.used_bytes == 0       # on the wire, not in the pool
    return sim, port


def enqueue(port, payload=1000):
    return port.enqueue(data_packet(FlowKey(0, 1), 1, payload))


class TestSharedBuffer:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SharedBuffer(0)

    def test_admit_until_full(self):
        buf = SharedBuffer(2 * WIRE + 100)
        _, port = busy_port(buf)
        dropped = drop_log(port)
        assert enqueue(port) and enqueue(port)
        assert buf.used_bytes == 2 * WIRE
        assert not enqueue(port)                    # 100 bytes left
        assert buf.used_bytes == 2 * WIRE and len(dropped) == 1
        assert enqueue(port, payload=100 - DATA_HEADER_BYTES)
        assert buf.used_bytes == buf.capacity_bytes

    def test_release_frees_space(self):
        buf = SharedBuffer(2 * WIRE)
        sim, port = busy_port(buf)
        assert enqueue(port) and enqueue(port) and not enqueue(port)
        sim.run()                                   # both dequeued
        assert buf.used_bytes == 0
        assert enqueue(port)

    def test_peak_tracking(self):
        buf = SharedBuffer(10 * WIRE)
        sim, port = busy_port(buf)
        for _ in range(3):
            enqueue(port)
        sim.run()
        assert buf.used_bytes == 0
        assert buf.peak_bytes == 3 * WIRE


class TestEcnConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            EcnConfig(kmin_bytes=500, kmax_bytes=100)
        with pytest.raises(ValueError):
            EcnConfig(pmax=1.5)

    def test_defaults_are_sane(self):
        cfg = EcnConfig()
        assert 0 < cfg.kmin_bytes <= cfg.kmax_bytes
        assert 0 < cfg.pmax <= 1.0


class TestEcnMarker:
    def test_below_kmin_never_marks(self):
        marker = EcnMarker(EcnConfig(kmin_bytes=1000, kmax_bytes=2000),
                           SimRng(1))
        assert not any(marker.should_mark(999) for _ in range(100))

    def test_above_kmax_always_marks(self):
        marker = EcnMarker(EcnConfig(kmin_bytes=1000, kmax_bytes=2000),
                           SimRng(1))
        assert all(marker.should_mark(2001) for _ in range(100))

    def test_linear_region_marks_proportionally(self):
        cfg = EcnConfig(kmin_bytes=0, kmax_bytes=10_000, pmax=1.0)
        marker = EcnMarker(cfg, SimRng(5))
        hits = sum(marker.should_mark(5_000) for _ in range(4000))
        assert 0.45 < hits / 4000 < 0.55

    def test_counters(self):
        marker = EcnMarker(EcnConfig(kmin_bytes=0, kmax_bytes=1), SimRng(1))
        marker.should_mark(10)
        marker.should_mark(10)
        marker.should_mark(0)
        assert marker.marked == 2
