"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import Simulator
from repro.core.statistics import BatchMeans, confidence_interval, jain_fairness_index
from repro.mac.timing import MacTiming, timing_for_bandwidth
from repro.net.headers import IpHeader, IpProtocol, TcpHeader
from repro.net.packet import Packet
from repro.routing.table import RouteEntry, RoutingTable
from repro.transport.ack_thinning import AckThinningPolicy
from repro.transport.rtt import RttEstimator
from repro.transport.sink import TcpSink
from tests.helpers import DEFAULT_FLOW, make_flow_stats


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_always_execute_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestStatisticsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_confidence_interval_contains_sample_mean(self, values):
        ci = confidence_interval(values)
        assert ci.lower - 1e-6 <= sum(values) / len(values) <= ci.upper + 1e-6

    @given(st.floats(min_value=0.001, max_value=1e5), st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_equal_flows_always_perfectly_fair(self, value, count):
        assert jain_fairness_index([value] * count) == pytest.approx(1.0)

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=400))
    @settings(max_examples=50, deadline=None)
    def test_completed_batches_match_deliveries(self, batch_size, deliveries):
        batches = BatchMeans(batch_size=batch_size, discard_batches=0)
        for i in range(deliveries):
            batches.record_delivery(now=float(i + 1), cumulative_value=float(i + 1))
        assert batches.completed_batches == deliveries // batch_size


class TestRttProperties:
    @given(st.lists(st.floats(min_value=1e-4, max_value=10.0), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_timeout_always_within_configured_bounds(self, samples):
        estimator = RttEstimator()
        for sample in samples:
            estimator.update(sample)
        assert estimator.min_rto <= estimator.timeout() <= estimator.max_rto

    @given(st.lists(st.floats(min_value=1e-4, max_value=10.0), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_min_rtt_is_smallest_sample(self, samples):
        estimator = RttEstimator()
        for sample in samples:
            estimator.update(sample)
        assert estimator.min_rtt == pytest.approx(min(samples))


class TestMacTimingProperties:
    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_contention_window_monotone_and_bounded(self, attempt):
        timing = MacTiming()
        assert timing.cw_min <= timing.contention_window(attempt) <= timing.cw_max
        assert timing.contention_window(attempt) <= timing.contention_window(attempt + 1)

    @given(st.sampled_from([2.0, 5.5, 11.0]), st.integers(min_value=64, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_nav_always_covers_data_and_ack(self, bandwidth, frame_size):
        timing = timing_for_bandwidth(bandwidth)
        assert timing.nav_for_rts(frame_size) > timing.data_duration(frame_size)
        assert timing.nav_for_cts(frame_size) > timing.data_duration(frame_size)


class TestAckThinningProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_degree_always_between_1_and_4(self, seq):
        assert 1 <= AckThinningPolicy().degree(seq) <= 4

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=100, deadline=None)
    def test_degree_monotone_in_sequence_number(self, a, b):
        policy = AckThinningPolicy()
        low, high = sorted((a, b))
        assert policy.degree(low) <= policy.degree(high)


class TestRoutingTableProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                              st.integers(min_value=0, max_value=20)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_invalidate_next_hop_leaves_no_usable_route_via_it(self, routes):
        table = RoutingTable()
        for destination, next_hop in routes:
            table.upsert(RouteEntry(destination=destination, next_hop=next_hop,
                                    hop_count=1, expiry_time=1e9))
        table.invalidate_next_hop(5)
        assert table.routes_via(5) == []


class TestSinkProperties:
    @given(st.permutations(list(range(12))))
    @settings(max_examples=50, deadline=None)
    def test_sink_delivers_every_segment_exactly_once_regardless_of_order(self, order):
        sim = Simulator()
        sink = TcpSink(sim, DEFAULT_FLOW, make_flow_stats())
        sink.attach(lambda packet: None)
        for seq in order:
            sink.receive(Packet(
                payload_size=1460,
                ip=IpHeader(src=0, dst=1, protocol=IpProtocol.TCP),
                tcp=TcpHeader(src_port=5001, dst_port=6001, seq=seq),
            ))
        assert sink.next_expected == 12
        assert sink.stats.packets_delivered == 12
        assert sink.stats.bytes_delivered == 12 * 1460

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_sink_never_counts_duplicates_toward_goodput(self, seqs):
        sim = Simulator()
        sink = TcpSink(sim, DEFAULT_FLOW, make_flow_stats())
        sink.attach(lambda packet: None)
        for seq in seqs:
            sink.receive(Packet(
                payload_size=1460,
                ip=IpHeader(src=0, dst=1, protocol=IpProtocol.TCP),
                tcp=TcpHeader(src_port=5001, dst_port=6001, seq=seq),
            ))
        assert sink.stats.packets_delivered == sink.next_expected
        assert sink.stats.packets_delivered <= len(set(seqs))


class TestPacketProperties:
    @given(st.integers(min_value=0, max_value=65_536))
    @settings(max_examples=50, deadline=None)
    def test_size_is_payload_plus_headers(self, payload):
        packet = Packet(
            payload_size=payload,
            ip=IpHeader(src=0, dst=1, protocol=IpProtocol.TCP),
            tcp=TcpHeader(src_port=1, dst_port=2),
        )
        assert packet.size == payload + 40
        assert packet.copy().size == packet.size
