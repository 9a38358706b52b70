"""Tests for TCP Vegas congestion control."""

from __future__ import annotations

import pytest

from repro.net.headers import IpHeader, IpProtocol, TcpFlag, TcpHeader
from repro.net.packet import Packet
from repro.transport.vegas import VegasParameters, VegasSender
from tests.helpers import DEFAULT_FLOW, build_vegas_pair, make_flow_stats


def make_ack(ack, echo=0.0):
    return Packet(
        payload_size=0,
        ip=IpHeader(src=1, dst=0, protocol=IpProtocol.TCP),
        tcp=TcpHeader(src_port=6001, dst_port=5001, ack=ack, flags=TcpFlag.ACK,
                      echo_timestamp=echo),
    )


def make_sender(sim, alpha=2.0):
    sender = VegasSender(
        sim, DEFAULT_FLOW, make_flow_stats(),
        parameters=VegasParameters(alpha=alpha, beta=alpha, gamma=alpha),
    )
    sender.attach(lambda packet: None)
    return sender


class TestDiffComputation:
    def test_diff_none_before_measurements(self, sim):
        sender = make_sender(sim)
        assert sender.compute_diff() is None

    def test_diff_zero_when_rtt_equals_base(self, sim):
        sender = make_sender(sim)
        sender.base_rtt = 0.1
        sender._epoch_rtt_sum = 0.1
        sender._epoch_rtt_count = 1
        sender.set_cwnd(4.0)
        assert sender.compute_diff() == pytest.approx(0.0)

    def test_diff_formula_matches_paper(self, sim):
        # diff = cwnd * (RTT - baseRTT) / RTT, measured in packets.
        sender = make_sender(sim)
        sender.base_rtt = 0.1
        sender._epoch_rtt_sum = 0.2
        sender._epoch_rtt_count = 1
        sender.set_cwnd(8.0)
        assert sender.compute_diff() == pytest.approx(8.0 * (0.2 - 0.1) / 0.2)

    def test_base_rtt_tracks_minimum(self, sim):
        sender, sink, stats, net = build_vegas_pair(sim, delay=0.05, data_limit=30)
        sender.start()
        sim.run(until=30.0)
        assert sender.base_rtt == pytest.approx(0.1, rel=0.1)


class TestWindowAdjustment:
    def _prime(self, sender, rtt, base_rtt, cwnd):
        sender.base_rtt = base_rtt
        sender._epoch_rtt_sum = rtt
        sender._epoch_rtt_count = 1
        sender._in_slow_start = False
        sender.set_cwnd(cwnd)
        sender._epoch_end_seq = 0
        sender.snd_una = 1
        sender.snd_nxt = int(cwnd) + 1

    def test_window_increases_when_diff_below_alpha(self, sim):
        sender = make_sender(sim, alpha=2.0)
        self._prime(sender, rtt=0.105, base_rtt=0.1, cwnd=6.0)  # diff ≈ 0.29
        sender._run_rtt_epoch_update()
        assert sender.cwnd == pytest.approx(7.0)

    def test_window_decreases_when_diff_above_beta(self, sim):
        sender = make_sender(sim, alpha=2.0)
        self._prime(sender, rtt=0.2, base_rtt=0.1, cwnd=8.0)  # diff = 4
        sender._run_rtt_epoch_update()
        assert sender.cwnd == pytest.approx(7.0)

    def test_window_unchanged_inside_band(self, sim):
        sender = make_sender(sim, alpha=2.0)
        self._prime(sender, rtt=0.14, base_rtt=0.1, cwnd=7.0)  # diff = 2.0
        sender._run_rtt_epoch_update()
        assert sender.cwnd == pytest.approx(7.0)

    def test_larger_alpha_sustains_larger_window(self, sim):
        # With the same RTT inflation (diff ≈ 2.3 packets), α = β = 2 shrinks
        # the window while α = β = 4 keeps growing — this is Figure 3's
        # "average window grows with α" effect.
        small_alpha = make_sender(sim, alpha=2.0)
        large_alpha = make_sender(sim, alpha=4.0)
        for sender in (small_alpha, large_alpha):
            self._prime(sender, rtt=0.13, base_rtt=0.1, cwnd=10.0)  # diff ≈ 2.3
            sender._run_rtt_epoch_update()
        assert small_alpha.cwnd == pytest.approx(9.0)
        assert large_alpha.cwnd == pytest.approx(11.0)
        assert large_alpha.cwnd > small_alpha.cwnd

    def test_slow_start_exits_when_diff_exceeds_gamma(self, sim):
        sender = make_sender(sim, alpha=2.0)
        sender.base_rtt = 0.1
        sender._epoch_rtt_sum = 0.3
        sender._epoch_rtt_count = 1
        sender.set_cwnd(8.0)
        sender._epoch_end_seq = 0
        sender.snd_una = 1
        assert sender.in_slow_start
        sender._run_rtt_epoch_update()
        assert not sender.in_slow_start
        assert sender.cwnd < 8.0

    def test_slow_start_doubles_every_other_rtt(self, sim):
        sender = make_sender(sim)
        sender.base_rtt = 0.1
        start = sender.cwnd
        # Two epochs with no congestion signal: exactly one doubling.
        for _ in range(2):
            sender._epoch_rtt_sum = 0.1
            sender._epoch_rtt_count = 1
            sender._epoch_end_seq = sender.snd_una
            sender.snd_una += 1
            sender.snd_nxt = sender.snd_una + 4
            sender._run_rtt_epoch_update()
        assert sender.cwnd == pytest.approx(start * 2)


class TestVegasRetransmission:
    def test_fast_retransmit_reduces_window_by_quarter(self, sim):
        sender = make_sender(sim)
        sender.set_cwnd(8.0)
        sender.snd_nxt = 8
        sender._send_times[0] = (0.0, False)
        sender._fast_retransmit()
        assert sender.cwnd == pytest.approx(6.0)

    def test_expired_segment_retransmitted_on_first_dupack(self, sim):
        sent = []
        sender = make_sender(sim)
        sender.attach(sent.append)
        sender.start()
        sender.rtt.update(0.01)
        # Make the outstanding segment look ancient.
        sender.snd_nxt = 3
        sender._send_times[0] = (-10.0, False)
        sent.clear()
        sender.receive(make_ack(0))  # a single duplicate ACK
        assert any(p.tcp.seq == 0 for p in sent)

    def test_timeout_collapses_to_two_segments(self, sim):
        sender = make_sender(sim)
        sender.set_cwnd(9.0)
        sender.on_timeout()
        assert sender.cwnd == pytest.approx(2.0)
        assert not sender.in_slow_start

    def test_lossy_transfer_completes(self, sim):
        sender, sink, stats, net = build_vegas_pair(sim, data_limit=50,
                                                    drop_data_seqs=[6, 20])
        sender.start()
        sim.run(until=60.0)
        assert sink.delivered_packets == 50
        assert stats.retransmissions >= 2

    def test_clean_transfer_has_no_retransmissions(self, sim):
        sender, sink, stats, net = build_vegas_pair(sim, data_limit=60)
        sender.start()
        sim.run(until=60.0)
        assert sink.delivered_packets == 60
        assert stats.retransmissions == 0


class TestVegasVsNewRenoWindow:
    def test_vegas_keeps_smaller_window_than_newreno_on_same_path(self, sim):
        # On an uncongested loopback path Vegas settles near a small window
        # while NewReno keeps growing — the core mechanism behind the paper's
        # results.
        from tests.helpers import build_newreno_pair

        vegas_sender, _, vegas_stats, _ = build_vegas_pair(sim, delay=0.02, data_limit=300)
        vegas_sender.start()
        sim.run(until=30.0)
        vegas_window = vegas_stats.average_window(sim.now)

        sim2 = type(sim)()
        newreno_sender, _, newreno_stats, _ = build_newreno_pair(sim2, delay=0.02,
                                                                 data_limit=300)
        newreno_sender.start()
        sim2.run(until=30.0)
        newreno_window = newreno_stats.average_window(sim2.now)

        assert vegas_window < newreno_window
