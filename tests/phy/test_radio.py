"""Tests for the radio reception/capture/collision state machine.

Signals reach the radio the way they do in a run: a peer radio transmits and
the channel drives this radio's signal edges.  A peer 200 m away is decodable
(``near``/``other``, equal power); one 400 m away is sensed only and, by the
two-ray law, 16 times weaker (``far``).
"""

from __future__ import annotations

import pytest

from repro.net.interfaces import PhyListener
from repro.net.packet import Packet
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import Position
from repro.phy.radio import Radio


class RecordingListener(PhyListener):
    """Collects radio callbacks for assertions."""

    def __init__(self):
        self.received = []
        self.busy_events = 0
        self.idle_events = 0

    def on_frame_received(self, packet):
        self.received.append(packet)

    def on_carrier_busy(self):
        self.busy_events += 1

    def on_carrier_idle(self):
        self.idle_events += 1


@pytest.fixture
def radio(sim, channel):
    radio = Radio(sim, node_id=0, channel=channel, capture_threshold=10.0)
    channel.register(radio, Position(0, 0))
    radio.listener = RecordingListener()
    return radio


def _peer(sim, channel, node_id, x):
    peer = Radio(sim, node_id=node_id, channel=channel)
    channel.register(peer, Position(x, 0))
    return peer


@pytest.fixture
def near(sim, channel, radio):
    return _peer(sim, channel, 1, 200)


@pytest.fixture
def other(sim, channel, radio):
    return _peer(sim, channel, 2, -200)


@pytest.fixture
def far(sim, channel, radio):
    return _peer(sim, channel, 3, 400)


class TestReception:
    def test_clean_reception_delivered(self, sim, radio, near):
        near.transmit(Packet(payload_size=100), duration=0.001)
        sim.run()
        assert len(radio.listener.received) == 1
        assert radio.stats.frames_received == 1

    def test_weak_signal_not_delivered(self, sim, radio, far):
        far.transmit(Packet(), duration=0.001)
        sim.run()
        assert radio.listener.received == []
        assert radio.stats.frames_below_threshold == 1

    def test_equal_power_overlap_collides(self, sim, radio, near, other):
        near.transmit(Packet(), duration=0.002)
        sim.schedule(0.0005, other.transmit, Packet(), 0.002)
        sim.run()
        assert radio.listener.received == []
        assert radio.stats.frames_corrupted >= 1

    def test_capture_first_strong_frame_survives_weak_late_interferer(
            self, sim, radio, near, far):
        strong = Packet(payload_size=10)
        near.transmit(strong, duration=0.002)
        # 16x weaker interferer arriving later is captured away.
        sim.schedule(0.0005, far.transmit, Packet(), 0.001)
        sim.run()
        assert [p.uid for p in radio.listener.received] == [strong.uid]
        assert radio.stats.frames_captured == 1

    def test_weak_first_frame_destroys_later_strong_frame(self, sim, radio, near, far):
        # The ns-2 hidden-terminal mechanism: a weak frame locks the receiver,
        # the later strong frame cannot be captured and both are lost.
        far.transmit(Packet(), duration=0.002)
        sim.schedule(0.0005, near.transmit, Packet(payload_size=10), 0.002)
        sim.run()
        assert radio.listener.received == []
        assert radio.stats.frames_corrupted == 1

    def test_back_to_back_non_overlapping_frames_both_received(self, sim, radio, near):
        near.transmit(Packet(), duration=0.001)
        sim.schedule(0.002, near.transmit, Packet(), 0.001)
        sim.run()
        assert len(radio.listener.received) == 2

    def test_a_signal_ends_only_when_the_channel_says_so(self, sim, radio):
        signal = radio.signal_start(Packet(), duration=0.001, receivable=True)
        sim.run()
        assert sim.now == 0.0 and radio.listener.received == []
        assert (signal.end_time, signal.end_sequence) == (0.001, 0)
        assert sim.reserve_sequences() == 1        # the end edge's place is taken


class TestHalfDuplex:
    def test_reception_aborted_by_own_transmission(self, sim, radio, near):
        near.transmit(Packet(), duration=0.003)
        sim.schedule(0.001, radio.transmit, Packet(), 0.001)
        sim.run()
        assert radio.listener.received == []
        assert radio.stats.frames_corrupted == 1

    def test_signal_arriving_during_transmission_lost(self, sim, radio, near):
        radio.transmit(Packet(), duration=0.003)
        sim.schedule(0.001, near.transmit, Packet(), 0.001)
        sim.run()
        assert radio.listener.received == []

    def test_is_transmitting_window(self, sim, radio):
        radio.transmit(Packet(), duration=0.002)
        assert radio.is_transmitting
        sim.run()
        assert not radio.is_transmitting

    def test_transmit_stats(self, sim, radio):
        radio.transmit(Packet(payload_size=50), duration=0.002)
        sim.run()
        assert radio.stats.frames_sent == 1
        assert radio.stats.bytes_sent == 50
        assert radio.stats.time_transmitting == pytest.approx(0.002)


class TestCarrierSense:
    def test_carrier_busy_during_signal(self, sim, radio, far):
        far.transmit(Packet(), duration=0.002)
        sim.run(until=0.001)
        assert radio.carrier_busy
        sim.run()
        assert not radio.carrier_busy

    def test_carrier_busy_until_the_last_overlapping_signal_ends(
            self, sim, radio, near, far):
        far.transmit(Packet(), duration=0.003)
        sim.schedule(0.001, near.transmit, Packet(), 0.001)
        sim.run(until=0.0025)            # the later, shorter signal is over
        assert radio.carrier_busy
        assert radio.listener.idle_events == 0
        sim.run()
        assert not radio.carrier_busy
        assert (radio.listener.busy_events, radio.listener.idle_events) == (1, 1)

    def test_carrier_busy_while_transmitting(self, sim, radio):
        radio.transmit(Packet(), duration=0.001)
        assert radio.carrier_busy
        sim.run()
        assert not radio.carrier_busy

    def test_busy_idle_callbacks_fire(self, sim, radio, near):
        near.transmit(Packet(), duration=0.001)
        sim.run()
        assert radio.listener.busy_events >= 1
        assert radio.listener.idle_events >= 1
