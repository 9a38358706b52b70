"""Unit tests for the wired shared-bus link layer (CSMA/CD, backoff, stats)."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.link.wired import WiredBus, WiredPort
from repro.mac.frames import attach_data_header
from repro.mac.queue import DropTailQueue
from repro.net.headers import BROADCAST, IpHeader, IpProtocol
from repro.net.interfaces import MacListener
from repro.net.packet import Packet


class RecordingListener(MacListener):
    """Captures every MacListener callback for assertions."""

    def __init__(self):
        self.delivered = []
        self.successes = []
        self.failures = []

    def on_mac_delivery(self, packet):
        self.delivered.append(packet)

    def on_mac_send_success(self, packet, next_hop):
        self.successes.append((packet, next_hop))

    def on_mac_send_failure(self, packet, next_hop):
        self.failures.append((packet, next_hop))


def make_frame(src, dst, size=1000):
    packet = Packet(payload_size=size,
                    ip=IpHeader(src=src, dst=dst, protocol=IpProtocol.UDP))
    attach_data_header(packet, src=src, dst=dst, nav=0.0, retry=False)
    return packet


def build_port(sim, bus, node_id, randomness):
    queue = DropTailQueue()
    port = WiredPort(sim, node_id, bus, queue,
                     rng=randomness.stream(f"wired.{node_id}"))
    listener = RecordingListener()
    port.listener = listener
    return port, queue, listener


class TestWiredBus:
    def test_unicast_delivery(self, sim, randomness):
        bus = WiredBus(sim, rate_mbps=10.0, propagation_delay=5e-6)
        _, queue_a, _ = build_port(sim, bus, 0, randomness)
        _, _, listener_b = build_port(sim, bus, 1, randomness)
        _, _, listener_c = build_port(sim, bus, 2, randomness)
        queue_a.enqueue(make_frame(0, 1))
        sim.run(until=1.0)
        assert len(listener_b.delivered) == 1
        assert listener_b.delivered[0].require_ip().dst == 1
        # Unicast frames are filtered at the bus: node 2 never sees them.
        assert listener_c.delivered == []

    def test_broadcast_reaches_all_other_ports(self, sim, randomness):
        bus = WiredBus(sim)
        _, queue_a, listener_a = build_port(sim, bus, 0, randomness)
        _, _, listener_b = build_port(sim, bus, 1, randomness)
        _, _, listener_c = build_port(sim, bus, 2, randomness)
        queue_a.enqueue(make_frame(0, BROADCAST))
        sim.run(until=1.0)
        assert len(listener_b.delivered) == 1
        assert len(listener_c.delivered) == 1
        assert listener_a.delivered == []

    def test_sender_notified_and_counted_on_success(self, sim, randomness):
        bus = WiredBus(sim)
        port_a, queue_a, listener_a = build_port(sim, bus, 0, randomness)
        build_port(sim, bus, 1, randomness)
        frame = make_frame(0, 1, size=500)
        frame_size = frame.size
        queue_a.enqueue(frame)
        sim.run(until=1.0)
        assert len(listener_a.successes) == 1
        delivered, next_hop = listener_a.successes[0]
        assert next_hop == 1
        assert delivered.mac is None  # mirrored from the 802.11 MAC contract
        assert port_a.stats.frames_sent == 1
        assert port_a.stats.bytes_sent == frame_size

    def test_serialized_frames_do_not_collide(self, sim, randomness):
        bus = WiredBus(sim)
        port_a, queue_a, _ = build_port(sim, bus, 0, randomness)
        _, _, listener_b = build_port(sim, bus, 1, randomness)
        for _ in range(5):
            queue_a.enqueue(make_frame(0, 1))
        sim.run(until=1.0)
        assert len(listener_b.delivered) == 5
        assert port_a.stats.collisions == 0

    def test_simultaneous_start_collides_then_backoff_resolves(self, sim, randomness):
        bus = WiredBus(sim)
        port_a, queue_a, listener_a = build_port(sim, bus, 0, randomness)
        port_b, queue_b, listener_b = build_port(sim, bus, 1, randomness)
        # Both ports see an idle bus at t=0 and transmit immediately.
        queue_a.enqueue(make_frame(0, 1))
        queue_b.enqueue(make_frame(1, 0))
        sim.run(until=1.0)
        assert port_a.stats.collisions >= 1
        assert port_b.stats.collisions >= 1
        assert port_a.stats.backoffs + port_b.stats.backoffs >= 2
        # Binary exponential backoff separates the retries eventually.
        assert len(listener_a.delivered) == 1
        assert len(listener_b.delivered) == 1
        assert len(listener_a.successes) == 1
        assert len(listener_b.successes) == 1

    def test_vulnerability_window_collision(self, sim, randomness):
        # Port B starts inside A's propagation window: carrier not yet
        # sensed, so both frames are corrupted.
        bus = WiredBus(sim, propagation_delay=1e-4)
        port_a, queue_a, _ = build_port(sim, bus, 0, randomness)
        port_b, queue_b, _ = build_port(sim, bus, 1, randomness)
        queue_a.enqueue(make_frame(0, 1))
        sim.schedule(5e-5, lambda: queue_b.enqueue(make_frame(1, 0)))
        sim.run(until=1.0)
        # Stats land when each corrupted transmission finishes; retries may
        # collide again before backoff separates them.
        assert port_a.stats.collisions >= 1
        assert port_b.stats.collisions >= 1

    def test_excess_collisions_drop_and_notify_routing(self, sim, randomness):
        bus = WiredBus(sim)
        port_a, queue_a, listener_a = build_port(sim, bus, 0, randomness)
        build_port(sim, bus, 1, randomness)

        # Force every transmission attempt to collide by keeping a fresh
        # competing transmission on the wire whenever A transmits.
        original_transmit = bus.transmit

        def always_collide(port, packet):
            original_transmit(port, packet)
            if port is port_a:
                for transmission in bus._active:
                    transmission.corrupted = True

        bus.transmit = always_collide
        queue_a.enqueue(make_frame(0, 1))
        sim.run(until=60.0)
        assert port_a.stats.frames_dropped_excess_collisions == 1
        assert port_a.stats.collisions == WiredPort.MAX_ATTEMPTS
        assert len(listener_a.failures) == 1
        _, failed_hop = listener_a.failures[0]
        assert failed_hop == 1

    def test_link_blocking_suppresses_delivery(self, sim, randomness):
        bus = WiredBus(sim)
        _, queue_a, _ = build_port(sim, bus, 0, randomness)
        port_b, _, listener_b = build_port(sim, bus, 1, randomness)
        bus.set_link_blocked(0, 1, True)
        queue_a.enqueue(make_frame(0, 1))
        sim.run(until=1.0)
        assert listener_b.delivered == []
        assert port_b.stats.frames_received == 0
        bus.set_link_blocked(0, 1, False)
        queue_a.enqueue(make_frame(0, 1))
        sim.run(until=2.0)
        assert len(listener_b.delivered) == 1

    def test_link_blocking_validates_membership(self, sim, randomness):
        bus = WiredBus(sim)
        build_port(sim, bus, 0, randomness)
        with pytest.raises(ConfigurationError, match="unknown node 9"):
            bus.set_link_blocked(0, 9, True)

    def test_duplicate_port_rejected(self, sim, randomness):
        bus = WiredBus(sim)
        build_port(sim, bus, 0, randomness)
        with pytest.raises(ConfigurationError, match="already has a port"):
            build_port(sim, bus, 0, randomness)

    def test_busy_time_accounts_successful_airtime(self, sim, randomness):
        bus = WiredBus(sim, rate_mbps=10.0)
        _, queue_a, _ = build_port(sim, bus, 0, randomness)
        build_port(sim, bus, 1, randomness)
        frame = make_frame(0, 1, size=1000)
        expected = bus.frame_duration(frame)
        queue_a.enqueue(frame)
        sim.run(until=1.0)
        assert bus.finalize_utilization(1.0) == pytest.approx(expected)
