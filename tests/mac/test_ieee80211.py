"""Behavioural tests for the 802.11 DCF MAC."""

from __future__ import annotations

import pytest

from repro.core.randomness import RandomManager
from repro.mac.frames import attach_data_header, make_rts
from repro.mac.ieee80211 import Ieee80211Mac, MacState
from repro.mac.queue import DropTailQueue
from repro.mac.timing import timing_for_bandwidth
from repro.net.headers import BROADCAST, IpHeader, IpProtocol, MacFrameType
from repro.net.interfaces import MacListener
from repro.net.packet import Packet
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import Position
from repro.phy.radio import Radio


class RecordingMacListener(MacListener):
    """Records MAC callbacks for assertions."""

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


class MacTestbed:
    """A small set of MAC+radio stacks on one channel, no routing above."""

    def __init__(self, sim, positions, bandwidth=2.0):
        self.sim = sim
        self.channel = WirelessChannel(sim)
        self.timing = timing_for_bandwidth(bandwidth)
        randomness = RandomManager(seed=11)
        self.macs = {}
        self.listeners = {}
        for node_id, (x, y) in positions.items():
            radio = Radio(sim, node_id, self.channel)
            self.channel.register(radio, Position(x, y))
            queue = DropTailQueue()
            mac = Ieee80211Mac(sim, node_id, radio, queue, self.timing,
                               rng=randomness.stream(f"mac.{node_id}"))
            listener = RecordingMacListener()
            mac.listener = listener
            self.macs[node_id] = mac
            self.listeners[node_id] = listener

    def send(self, src, dst, payload=1460):
        packet = Packet(
            payload_size=payload,
            ip=IpHeader(src=src, dst=dst, protocol=IpProtocol.UDP),
        )
        attach_data_header(packet, src=src, dst=dst, nav=0.0, retry=False)
        self.macs[src].queue.enqueue(packet)
        return packet


class TestUnicastExchange:
    def test_single_packet_delivered(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        sent = bed.send(0, 1)
        sim.run(until=1.0)
        delivered = bed.listeners[1].delivered
        assert len(delivered) == 1
        assert delivered[0].uid == sent.uid
        assert bed.listeners[0].successes and not bed.listeners[0].failures

    def test_full_rts_cts_data_ack_exchange_counted(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        bed.send(0, 1)
        sim.run(until=1.0)
        assert bed.macs[0].stats.rts_tx == 1
        assert bed.macs[1].stats.cts_tx == 1
        assert bed.macs[0].stats.data_tx_attempts == 1
        assert bed.macs[1].stats.ack_tx == 1
        assert bed.macs[0].stats.data_tx_success == 1

    def test_multiple_packets_drain_queue_in_order(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        sent = [bed.send(0, 1) for _ in range(5)]
        sim.run(until=2.0)
        delivered_uids = [p.uid for p in bed.listeners[1].delivered]
        assert delivered_uids == [p.uid for p in sent]

    def test_two_hop_neighbor_cannot_be_reached(self, sim):
        # 400 m apart: inside carrier-sense range but outside transmission
        # range, so the exchange must fail after the RTS retry limit.
        bed = MacTestbed(sim, {0: (0, 0), 1: (400, 0)})
        bed.send(0, 1)
        sim.run(until=2.0)
        assert bed.listeners[0].failures
        assert bed.macs[0].stats.data_dropped_retry == 1
        assert bed.macs[0].stats.rts_timeouts == bed.timing.short_retry_limit

    def test_mac_returns_to_idle_after_exchange(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        bed.send(0, 1)
        sim.run(until=1.0)
        assert bed.macs[0].state is MacState.IDLE
        assert not bed.macs[0].has_work

    def test_bidirectional_traffic_both_delivered(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        bed.send(0, 1)
        bed.send(1, 0)
        sim.run(until=2.0)
        assert len(bed.listeners[1].delivered) == 1
        assert len(bed.listeners[0].delivered) == 1


class TestBroadcast:
    def test_broadcast_reaches_all_neighbors(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0), 2: (-200, 0), 3: (600, 0)})
        bed.send(0, BROADCAST, payload=64)
        sim.run(until=1.0)
        assert len(bed.listeners[1].delivered) == 1
        assert len(bed.listeners[2].delivered) == 1
        assert bed.listeners[3].delivered == []

    def test_macs_hand_up_the_shared_frame_and_the_sender_its_own_packet(self, sim):
        # The PHY hands every receiver the same read-only frame and the MAC
        # passes it up as it is: whoever forwards it copies it first.  What
        # the sender gets back is the packet it queued, MAC header taken off.
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0), 2: (-200, 0)})
        sent = bed.send(0, BROADCAST, payload=64)
        sim.run(until=1.0)
        (first,), (second,) = bed.listeners[1].delivered, bed.listeners[2].delivered
        assert first is second and first is not sent and first.uid == sent.uid
        assert first.ip is not sent.ip and first.ip.ttl == sent.ip.ttl
        assert (first.mac.src, first.mac.dst) == (0, BROADCAST)
        assert bed.listeners[0].successes == [(sent, BROADCAST)]
        assert sent.mac is None

    def test_broadcast_has_no_rts_or_retries(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        bed.send(0, BROADCAST, payload=64)
        sim.run(until=1.0)
        assert bed.macs[0].stats.rts_tx == 0
        assert bed.macs[0].stats.broadcasts_sent == 1
        assert bed.listeners[0].successes  # completion reported

    def test_broadcast_to_empty_neighborhood_still_completes(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 3: (900, 0)})
        bed.send(0, BROADCAST, payload=64)
        sim.run(until=1.0)
        assert bed.listeners[0].successes

    @pytest.mark.parametrize("answer", ["cts", "ack"])
    def test_a_response_sent_mid_broadcast_leaves_the_completion_to_it(self, sim, answer):
        """A radio may start a CTS or an ACK while its broadcast is still on
        the air.  The broadcast completes once, at its own end: the
        completion belongs to the frame, not to the radio's latest one."""
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        mac, radio = bed.macs[0], bed.macs[0].radio
        sent = bed.send(0, BROADCAST, payload=1000)
        completions = []
        recorded = bed.listeners[0].on_mac_send_success

        def on_mac_send_success(packet, next_hop):
            completions.append((sim.now, packet))
            recorded(packet, next_hop)

        bed.listeners[0].on_mac_send_success = on_mac_send_success
        # Run to the moment the broadcast goes on the air.
        transmit = radio.transmit

        def transmit_and_stop(*args):
            transmit(*args)
            sim.stop()

        radio.transmit = transmit_and_stop
        sim.run()
        del radio.transmit
        assert radio.is_transmitting
        broadcast_end = radio._transmitting_until
        timing = bed.timing
        assert sim.now + timing.sifs + max(timing.cts_duration,
                                           timing.ack_duration) < broadcast_end
        if answer == "cts":
            mac.on_frame_received(make_rts(src=1, dst=0, nav=0.004))
        else:
            data = Packet(payload_size=100)
            attach_data_header(data, src=1, dst=0, nav=0.0, retry=False)
            mac.on_frame_received(data)
        sim.run(until=1.0)
        assert (mac.stats.cts_tx, mac.stats.ack_tx) == (
            (1, 0) if answer == "cts" else (0, 1))
        assert radio.stats.frames_sent == 2
        assert completions == [(broadcast_end, sent)]


class TestVirtualCarrierSense:
    def test_overheard_rts_sets_nav(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0), 2: (400, 0)})
        mac2 = bed.macs[2]
        rts = make_rts(src=1, dst=0, nav=0.004)
        mac2.on_frame_received(rts)
        assert mac2.nav_remaining == pytest.approx(0.004)

    def test_frame_addressed_to_node_does_not_set_nav(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        mac1 = bed.macs[1]
        rts = make_rts(src=0, dst=1, nav=0.004)
        mac1.on_frame_received(rts)
        assert mac1.nav_remaining == 0.0

    def test_node_with_nav_does_not_answer_rts(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        mac1 = bed.macs[1]
        mac1.on_frame_received(make_rts(src=5, dst=9, nav=0.01))  # sets NAV
        mac1.on_frame_received(make_rts(src=0, dst=1, nav=0.004))
        sim.run(until=0.005)
        assert mac1.stats.cts_tx == 0


class TestReceivePath:
    @pytest.mark.parametrize("kind", ["rts", "data"])
    def test_a_received_frame_reads_its_mac_header_once(self, sim, monkeypatch, kind):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        if kind == "rts":
            frame = make_rts(src=0, dst=1, nav=0.004)
        else:
            frame = Packet(payload_size=100)
            attach_data_header(frame, src=0, dst=1, nav=0.0, retry=False)
        reads = []
        require_mac = Packet.require_mac
        monkeypatch.setattr(Packet, "require_mac",
                            lambda self: reads.append(self) or require_mac(self))
        mac = bed.macs[1]
        mac.on_frame_received(frame)
        assert reads == [frame]
        assert (mac.stats.cts_tx, mac.stats.ack_tx) == (
            (1, 0) if kind == "rts" else (0, 1))


class TestHiddenTerminalChain:
    def test_concurrent_senders_eventually_deliver(self, sim):
        # Nodes 0->1 and 3->4: node 3 is hidden from node 0.  Collisions may
        # force retries but both packets must eventually get through.
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0), 3: (600, 0), 4: (800, 0)})
        bed.send(0, 1)
        bed.send(3, 4)
        sim.run(until=5.0)
        assert len(bed.listeners[1].delivered) == 1
        assert len(bed.listeners[4].delivered) == 1


class AirWatch:
    """What each radio of a testbed transmits and what each MAC receives,
    with the fields of every received frame as it arrived."""

    def __init__(self, bed):
        self.transmitted = []       # (node, frame object)
        self.received = []          # (node, frame object, MAC header fields)
        for node_id, mac in bed.macs.items():
            self._watch(node_id, mac)

    def _watch(self, node_id, mac):
        radio, watch = mac.radio, self
        transmit, receive = radio.transmit, mac.on_frame_received

        def watched_transmit(packet, duration, on_sent=None):
            watch.transmitted.append((node_id, packet))
            transmit(packet, duration, on_sent)

        def watched_receive(packet):
            header = packet.mac
            watch.received.append((node_id, packet, (header.frame_type, header.src,
                                                     header.dst, header.retry)))
            receive(packet)

        radio.transmit = watched_transmit
        mac.on_frame_received = watched_receive

    def sent_objects(self):
        return [frame for _, frame in self.transmitted]


class TestWhatTheAirCarries:
    """Only the frame the sender goes on changing (the MAC's current DATA or
    broadcast packet) is copied for the air; a control frame is sent as
    built.  No later change of the sender's packet reaches a receiver."""

    def test_control_frames_reach_receivers_uncopied(self, sim, monkeypatch):
        copies = []
        copy = Packet.copy
        monkeypatch.setattr(Packet, "copy", lambda self: copies.append(self) or copy(self))
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        watch = AirWatch(bed)
        sent = bed.send(0, 1)
        sim.run(until=1.0)
        kinds = [fields[0] for _, _, fields in watch.received]
        assert kinds == [MacFrameType.RTS, MacFrameType.CTS, MacFrameType.DATA,
                         MacFrameType.ACK]
        sent_objects = watch.sent_objects()
        for _, frame, fields in watch.received:
            assert any(frame is other for other in sent_objects)
            if fields[0] is not MacFrameType.DATA:
                assert frame.payload_size == 0 and frame.ip is None
        # One copy for the one DATA transmission, of the sender's packet.
        assert len(copies) == 1 and copies[0] is sent

    def test_a_retry_header_does_not_reach_the_first_attempts_frame(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
        watch = AirWatch(bed)
        channel = bed.channel

        class LoseTheFirstAck(RecordingMacListener):
            def on_mac_delivery(self, packet):
                super().on_mac_delivery(packet)
                if len(self.delivered) == 1:
                    channel.set_link_blocked(0, 1)
                    sim.schedule(0.005, channel.set_link_blocked, 0, 1, False)

        bed.macs[1].listener = bed.listeners[1] = LoseTheFirstAck()
        sent = bed.send(0, 1)
        sim.run(until=1.0)
        data = [(frame, fields) for node, frame, fields in watch.received
                if node == 1 and fields[0] is MacFrameType.DATA]
        assert [fields[3] for _, fields in data] == [False, True]
        stats = bed.macs[0].stats
        assert stats.ack_timeouts >= 1 and stats.data_tx_success == 1
        # The sender let go of its packet (header stripped) once the retry
        # was acknowledged; each frame on the air kept the header it carried.
        assert sent.mac is None
        for frame, (frame_type, src, dst, retry) in data:
            assert frame is not sent
            assert (frame.mac.frame_type, frame.mac.src, frame.mac.dst,
                    frame.mac.retry) == (frame_type, src, dst, retry)
        delivered = bed.listeners[1].delivered
        assert len(delivered) == 1 and delivered[0].mac.retry is False

    def test_a_finished_broadcast_keeps_its_header_on_the_air(self, sim):
        bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0), 2: (-200, 0)})
        sent = bed.send(0, BROADCAST)
        sim.run(until=1.0)
        frames = bed.listeners[1].delivered + bed.listeners[2].delivered
        assert len(frames) == 2 and frames[0] is frames[1]
        assert sent.mac is None and bed.listeners[0].successes
        assert frames[0] is not sent and frames[0].mac.dst == BROADCAST
