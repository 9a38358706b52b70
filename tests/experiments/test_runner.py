"""Tests for scenario construction (wiring of variants, routing, flows)."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import FLOW_START_STAGGER, RUN_SLICE, Scenario
from repro.experiments.scenarios import available_scenarios, build_named_scenario
from repro.experiments.workload import ScenarioSpec
from repro.core.errors import ConfigurationError
from repro.routing.aodv import AodvRouting
from repro.routing.static import StaticRouting
from repro.topology.chain import chain_topology
from repro.topology.grid import grid_topology
from repro.transport.newreno import NewRenoSender
from repro.transport.sink import AckThinningSink, TcpSink
from repro.transport.udp import UdpSender
from repro.transport.vegas import VegasSender


def scenario_for(variant, topology=None, **overrides):
    defaults = dict(variant=variant, packet_target=50, max_sim_time=20.0)
    defaults.update(overrides)
    return Scenario(ScenarioSpec(topology=topology or chain_topology(hops=2),
                                 config=ScenarioConfig(**defaults)))


class TestScenarioWiring:
    def test_vegas_variant_builds_vegas_sender_and_plain_sink(self):
        scenario = scenario_for("vegas")
        assert isinstance(scenario.senders[0], VegasSender)
        assert type(scenario.sinks[0]) is TcpSink

    def test_newreno_variant_builds_newreno_sender(self):
        scenario = scenario_for("newreno")
        assert isinstance(scenario.senders[0], NewRenoSender)
        assert scenario.senders[0].max_cwnd is None

    def test_ack_thinning_variants_use_thinning_sink(self):
        for variant in ("vegas-at", "newreno-at"):
            scenario = scenario_for(variant)
            assert isinstance(scenario.sinks[0], AckThinningSink)

    def test_optimal_window_variant_sets_clamp(self):
        scenario = scenario_for("newreno-optwin",
                                newreno_max_cwnd=3.0)
        assert isinstance(scenario.senders[0], NewRenoSender)
        assert scenario.senders[0].max_cwnd == 3.0

    def test_paced_udp_variant_builds_udp_sender(self):
        scenario = scenario_for("paced-udp")
        assert isinstance(scenario.senders[0], UdpSender)

    def test_vegas_alpha_propagated_to_sender(self):
        scenario = scenario_for("vegas", vegas_alpha=4.0)
        params = scenario.senders[0].parameters
        assert params.alpha == params.beta == params.gamma == 4.0

    def test_one_node_per_topology_position(self):
        scenario = scenario_for("vegas", topology=grid_topology())
        assert len(scenario.nodes) == 21

    def test_one_flow_stats_per_flow(self):
        scenario = scenario_for("vegas", topology=grid_topology())
        assert len(scenario.flow_stats) == 6
        assert [stats.flow_id for stats in scenario.flow_stats] == list(range(1, 7))

    def test_aodv_is_default_routing(self):
        scenario = scenario_for("vegas")
        assert all(isinstance(node.routing, AodvRouting) for node in scenario.nodes.values())

    def test_static_routing_installs_next_hops(self):
        scenario = scenario_for("vegas", routing="static",
                                topology=chain_topology(hops=3))
        routing = scenario.nodes[0].routing
        assert isinstance(routing, StaticRouting)
        assert routing.next_hop_for(3) == 1

    def test_per_flow_batch_size_divides_packet_target(self):
        scenario = scenario_for("vegas", topology=grid_topology(),
                                packet_target=660)
        assert scenario.flow_stats[0].batch_size == 660 // (6 * 11)

    def test_flow_packet_shares_distribute_remainder_exactly(self):
        # 1000 packets over 6 flows × 11 batches is not divisible: the
        # remainder must be spread over the leading flows, never dropped.
        scenario = scenario_for("vegas", topology=grid_topology(),
                                packet_target=1000)
        shares = scenario._flow_packet_shares()
        assert sum(shares) == 1000
        assert shares == [167, 167, 167, 167, 166, 166]
        # Every flow's batch size is derived from its own share.
        assert [stats.batch_size for stats in scenario.flow_stats] == [
            share // 11 for share in shares]

    def test_flow_packet_shares_sum_for_prime_targets(self):
        scenario = scenario_for("vegas", topology=grid_topology(),
                                packet_target=997)
        shares = scenario._flow_packet_shares()
        assert sum(shares) == 997
        assert max(shares) - min(shares) <= 1

    def test_default_flow_starts_are_staggered(self):
        scenario = scenario_for("vegas", topology=grid_topology())
        assert [app.start_time for app in scenario.applications] == [
            index * FLOW_START_STAGGER for index in range(6)]

    def test_run_stops_at_the_end_of_a_slice(self):
        result = scenario_for("vegas").run()
        assert result.reached_packet_target
        assert result.simulated_time % RUN_SLICE == 0

    def test_udp_interval_override_used(self):
        scenario = scenario_for("paced-udp", udp_interval=0.042)
        assert scenario.applications[0].interval == pytest.approx(0.042)


class TestRunnerCli:
    def test_list_prints_every_preset_sorted(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == sorted(lines)
        assert set(available_scenarios()) == set(lines)

    def test_list_link_layers_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["list", "link-layers"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: link-layers" in capsys.readouterr().err

    def test_link_layer_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "backbone2x7-newreno", "--link-layer", "wired"])
        assert exit_info.value.code == 2
        assert "--link-layer" in capsys.readouterr().err

    def test_unknown_scenario_suggests_close_matches(self, capsys):
        assert main(["run", "chain7-vegs-2mbps"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "did you mean" in err
        assert "chain7-vegas-2mbps" in err

    def test_unknown_scenario_without_match_still_points_at_list(self, capsys):
        assert main(["run", "zzzzzzzzzz"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" not in err
        assert "python -m repro list" in err


class TestScenarioExecution:
    def test_run_stops_at_packet_target(self):
        scenario = scenario_for("vegas", packet_target=40,
                                max_sim_time=60.0)
        result = scenario.run()
        assert result.reached_packet_target
        assert result.delivered_packets >= 40
        assert result.simulated_time < 60.0

    def test_run_respects_time_limit_when_target_unreachable(self):
        scenario = scenario_for("vegas", packet_target=10_000_000,
                                max_sim_time=3.0)
        result = scenario.run()
        assert not result.reached_packet_target
        assert result.simulated_time <= 3.0 + 1e-9

    def test_result_name_encodes_variant_and_bandwidth(self):
        scenario = scenario_for("newreno", bandwidth_mbps=5.5)
        result = scenario.run()
        assert "NewReno" in result.name
        assert "5.5" in result.name


class TestNamedScenarios:
    def test_registry_contains_paper_presets(self):
        names = available_scenarios()
        assert "chain7-vegas-2mbps" in names
        assert "grid-newreno-2mbps" in names
        assert "random-rwalk-vegas-2mbps" in names

    def test_build_named_scenario_with_overrides(self):
        scenario = build_named_scenario("chain7-vegas-2mbps", packet_target=77, seed=9)
        assert scenario.config.packet_target == 77
        assert scenario.config.seed == 9
        assert scenario.config.variant == "vegas"
        assert len(scenario.nodes) == 8

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            build_named_scenario("chain99-cubic")

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            build_named_scenario("chain7-vegs-2mbps")
        with pytest.raises(ConfigurationError) as excinfo:
            build_named_scenario("chain7-vegas-2mbs")
        assert "chain7-vegas-2mbps" in str(excinfo.value)

    def test_optwin_default_carries_window_clamp(self):
        scenario = scenario_for("newreno-optwin", topology=grid_topology())
        assert scenario.config.newreno_max_cwnd == 3.0
        assert scenario.senders[0].max_cwnd == 3.0

    def test_tracer_threaded_through_named_scenario(self):
        from repro.core.tracing import Tracer

        tracer = Tracer(enabled=True)
        scenario = build_named_scenario("chain7-vegas-2mbps", tracer=tracer,
                                        packet_target=30)
        assert scenario.tracer is tracer
        assert all(node.tracer is tracer for node in scenario.nodes.values())

    def test_mixed_presets_registered(self):
        names = available_scenarios()
        assert "chain7-mixed-newreno-vegas" in names
        assert "random50-tcp-with-udp-background" in names

    def test_mixed_preset_overrides_apply_to_spec_config(self):
        scenario = build_named_scenario("chain7-mixed-newreno-vegas",
                                        packet_target=33, seed=8)
        assert scenario.config.packet_target == 33
        assert scenario.config.seed == 8
        assert len(scenario.workload) == 2

    def test_presets_follow_dynamic_transport_registrations(self):
        from repro.transport.registry import TRANSPORTS, TransportProfile
        from repro.transport.sink import TcpSink
        from repro.transport.vegas import VegasSender

        profile = TransportProfile(
            name="test-preset-variant",
            label="Preset Variant (test)",
            build_sender=lambda ctx: VegasSender(
                ctx.sim, ctx.flow, ctx.stats, config=ctx.config.tcp,
                tracer=ctx.tracer),
            build_sink=lambda ctx: TcpSink(
                ctx.sim, ctx.flow, ctx.stats, mss=ctx.config.tcp.mss,
                tracer=ctx.tracer),
        )
        TRANSPORTS.register(profile)
        try:
            scenario = build_named_scenario("chain7-vegas-2mbps",
                                            variant="test-preset-variant")
            assert isinstance(scenario.senders[0], VegasSender)
        finally:
            TRANSPORTS.unregister(profile.name)
