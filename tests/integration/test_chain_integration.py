"""End-to-end integration tests on small chain scenarios.

These run the whole stack (TCP / AODV / 802.11 / PHY) on short chains with a
small packet target, so they stay fast while checking the paper's qualitative
behaviour.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.workload import ScenarioSpec
from repro.topology.chain import chain_topology


def small_spec(hops, variant, **overrides):
    defaults = dict(
        variant=variant, bandwidth_mbps=2.0, packet_target=120, max_sim_time=120.0,
        seed=3,
    )
    defaults.update(overrides)
    return ScenarioSpec(topology=chain_topology(hops=hops),
                        config=ScenarioConfig(**defaults))


class TestChainDelivery:
    @pytest.mark.parametrize(
        "variant", ["vegas", "newreno", "vegas-at", "newreno-at", "paced-udp"])
    def test_every_variant_delivers_packets_on_3hop_chain(self, variant):
        result = Scenario(small_spec(3, variant)).run()
        assert result.delivered_packets >= 120
        assert result.aggregate_goodput_bps > 0
        assert result.reached_packet_target

    def test_optimal_window_variant_runs(self):
        spec = small_spec(3, "newreno-optwin", newreno_max_cwnd=3.0)
        result = Scenario(spec).run()
        assert result.delivered_packets >= 120
        assert result.flows[0].average_window <= 3.01

    def test_static_routing_ablation_runs(self):
        spec = small_spec(3, "vegas", routing="static")
        result = Scenario(spec).run()
        assert result.delivered_packets >= 120
        # Static routing never reports false route failures.
        assert result.false_route_failures == 0

    def test_higher_bandwidth_improves_goodput(self):
        slow = Scenario(small_spec(3, "vegas", bandwidth_mbps=2.0)).run()
        fast = Scenario(small_spec(3, "vegas", bandwidth_mbps=11.0)).run()
        assert fast.aggregate_goodput_bps > slow.aggregate_goodput_bps

    def test_sublinear_goodput_growth_with_bandwidth(self):
        # 5.5x more bandwidth must give far less than 5.5x more goodput
        # because control frames stay at 1 Mbit/s (Figure 4 discussion).
        slow = Scenario(small_spec(3, "vegas", bandwidth_mbps=2.0)).run()
        fast = Scenario(small_spec(3, "vegas", bandwidth_mbps=11.0)).run()
        ratio = fast.aggregate_goodput_bps / slow.aggregate_goodput_bps
        assert ratio < 5.5 / 2.0

    def test_goodput_decreases_with_hops(self):
        short = Scenario(small_spec(2, "vegas")).run()
        long = Scenario(small_spec(6, "vegas", packet_target=80)).run()
        assert short.aggregate_goodput_bps > long.aggregate_goodput_bps

    def test_deterministic_given_seed(self):
        spec = small_spec(2, "vegas", packet_target=60)
        first = Scenario(spec).run()
        second = Scenario(spec).run()
        assert first.aggregate_goodput_bps == pytest.approx(second.aggregate_goodput_bps)
        assert first.delivered_packets == second.delivered_packets

    def test_different_seed_changes_details(self):
        a = Scenario(small_spec(3, "newreno", seed=1)).run()
        b = Scenario(small_spec(3, "newreno", seed=2)).run()
        assert a.simulated_time != b.simulated_time or (
            a.aggregate_goodput_bps != b.aggregate_goodput_bps
        )


class TestPaperQualitativeResults:
    """The headline comparisons of Section 4.3, at reduced scale (7-hop chain)."""

    @pytest.fixture(scope="class")
    def seven_hop_results(self):
        results = {}
        for variant in ("vegas", "newreno"):
            config = ScenarioConfig(variant=variant, bandwidth_mbps=2.0,
                                    packet_target=250, max_sim_time=200.0, seed=3)
            results[variant] = Scenario(ScenarioSpec(
                topology=chain_topology(hops=7), config=config)).run()
        return results

    def test_vegas_outperforms_newreno_goodput(self, seven_hop_results):
        vegas = seven_hop_results["vegas"]
        newreno = seven_hop_results["newreno"]
        assert vegas.aggregate_goodput_bps > newreno.aggregate_goodput_bps

    def test_vegas_far_fewer_retransmissions(self, seven_hop_results):
        vegas = seven_hop_results["vegas"]
        newreno = seven_hop_results["newreno"]
        assert vegas.average_retransmissions_per_packet < (
            newreno.average_retransmissions_per_packet
        )

    def test_vegas_smaller_average_window(self, seven_hop_results):
        vegas = seven_hop_results["vegas"]
        newreno = seven_hop_results["newreno"]
        assert vegas.average_window < newreno.average_window

    def test_vegas_window_in_papers_range(self, seven_hop_results):
        # Figure 8: Vegas keeps its window around 3.5-5.5 packets.
        window = seven_hop_results["vegas"].average_window
        assert 2.0 < window < 7.0

    def test_vegas_fewer_false_route_failures(self, seven_hop_results):
        vegas = seven_hop_results["vegas"]
        newreno = seven_hop_results["newreno"]
        assert vegas.false_route_failures <= newreno.false_route_failures

    def test_scenario_accounting_consistent(self, seven_hop_results):
        for result in seven_hop_results.values():
            flow = result.flows[0]
            assert flow.delivered_packets == result.delivered_packets
            assert result.mac_frames_sent > result.delivered_packets
