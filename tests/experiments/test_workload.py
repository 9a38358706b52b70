"""Unit tests for the Workload API v2 layer (specs, events, builder)."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.tracing import Tracer, trace_digest
from repro.experiments.config import ScenarioConfig, TransportVariant
from repro.experiments.runner import Scenario
from repro.experiments.workload import (
    FlowSpec,
    ScenarioBuilder,
    ScenarioEvent,
    ScenarioSpec,
    Workload,
    mixed_transport_workload,
)
from repro.net.packet import reset_packet_ids
from repro.topology.chain import chain_topology
from repro.topology.grid import grid_topology
from repro.transport.registry import TransportProfile, transport_names
from repro.transport.tcp_base import TcpConfig


class TestFlowSpec:
    def test_same_endpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(source=1, destination=1)

    def test_unknown_variant_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(source=0, destination=1, variant="cubic")

    def test_variant_spelling_normalised(self):
        flow = FlowSpec(source=0, destination=1, variant="Vegas ACK Thinning")
        assert flow.variant is TransportVariant.VEGAS_ACK_THINNING

    def test_negative_times_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(source=0, destination=1, start_time=-1.0)
        with pytest.raises(ConfigurationError):
            FlowSpec(source=0, destination=1, stop_time=-0.5)

    def test_stop_before_start_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(source=0, destination=1, start_time=5.0, stop_time=5.0)

    def test_bad_packet_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(source=0, destination=1, packet_limit=0)

    def test_effective_config_returns_base_when_nothing_overridden(self):
        base = ScenarioConfig(packet_target=100)
        flow = FlowSpec(source=0, destination=1)
        assert flow.effective_config(base) is base

    def test_effective_config_applies_per_flow_overrides(self):
        base = ScenarioConfig(variant="newreno", vegas_alpha=2.0)
        flow = FlowSpec(source=0, destination=1, variant="vegas",
                        vegas_alpha=4.0, tcp=TcpConfig(mss=512))
        config = flow.effective_config(base)
        assert config.variant is TransportVariant.VEGAS
        assert config.vegas_alpha == 4.0
        assert config.tcp.mss == 512
        # Non-overridden fields are inherited.
        assert config.packet_target == base.packet_target

    def test_effective_variant_falls_back_to_default(self):
        flow = FlowSpec(source=0, destination=1)
        assert flow.effective_variant("vegas") == "vegas"


class TestWorkload:
    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            Workload(flows=())

    def test_from_topology_lifts_endpoint_flows(self):
        workload = Workload.from_topology(grid_topology(), variant="vegas")
        assert len(workload) == 6
        assert all(flow.variant is TransportVariant.VEGAS for flow in workload)

    def test_is_uniform_compares_against_the_default(self):
        topology = chain_topology(hops=2)
        assert Workload.from_topology(topology).is_uniform("vegas")
        # Naming the default explicitly is still uniform…
        assert Workload.from_topology(topology,
                                      variant="vegas").is_uniform("vegas")
        # …naming a different variant is not.
        assert not Workload.from_topology(topology,
                                          variant="newreno").is_uniform("vegas")

    def test_variant_keys_ordered_unique(self):
        workload = Workload(flows=(
            FlowSpec(0, 2, variant="newreno"),
            FlowSpec(0, 2, variant="vegas"),
            FlowSpec(0, 2, variant="newreno"),
        ))
        assert workload.variant_keys("vegas") == ["newreno", "vegas"]


class TestScenarioEvent:
    def test_constructors_round_trip_actions(self):
        assert ScenarioEvent.flow_start(1.0, flow=2).action == "flow-start"
        assert ScenarioEvent.flow_stop(1.0, flow=2).action == "flow-stop"
        assert ScenarioEvent.node_down(1.0, node=3).action == "node-down"
        assert ScenarioEvent.node_up(1.0, node=3).action == "node-up"
        link = ScenarioEvent.link_down(1.0, 3, 4)
        assert (link.action, link.target, link.peer) == ("link-down", 3, 4)

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent(time=1.0, action="reboot", target=1)

    def test_link_event_needs_two_distinct_nodes(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent(time=1.0, action="link-down", target=3)
        with pytest.raises(ConfigurationError):
            ScenarioEvent.link_down(1.0, 3, 3)

    def test_non_link_event_takes_no_peer(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent(time=1.0, action="node-down", target=3, peer=4)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent.node_down(-1.0, node=3)


class TestScenarioSpec:
    def test_defaults_lift_topology_flows(self):
        spec = ScenarioSpec(topology=chain_topology(hops=3))
        assert len(spec.workload) == 1
        assert spec.workload[0].endpoints == (0, 3)

    def test_unknown_flow_endpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                topology=chain_topology(hops=2),
                workload=Workload(flows=(FlowSpec(source=0, destination=9),)),
            )

    def test_timeline_flow_index_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                topology=chain_topology(hops=2),
                timeline=(ScenarioEvent.flow_stop(1.0, flow=2),),
            )

    def test_timeline_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                topology=chain_topology(hops=2),
                timeline=(ScenarioEvent.node_down(1.0, node=77),),
            )

    def test_per_flow_variant_validation_fails_fast(self):
        # Optimal-window NewReno requires a window clamp, per flow too.
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                topology=chain_topology(hops=2),
                workload=Workload(flows=(
                    FlowSpec(source=0, destination=2, variant="newreno-optwin"),
                )),
            )
        # With the per-flow clamp the same spec is valid.
        ScenarioSpec(
            topology=chain_topology(hops=2),
            workload=Workload(flows=(
                FlowSpec(source=0, destination=2, variant="newreno-optwin",
                         newreno_max_cwnd=3.0),
            )),
        )

    @pytest.mark.parametrize("variant", transport_names())
    def test_a_thousand_uniform_flows_share_one_validated_config(self, monkeypatch,
                                                                 variant):
        """Set-up cost is per distinct flow config, not per flow: the memo in
        ``FlowSpec.effective_config`` hands every flow the same object, and
        ``ScenarioSpec`` checks that object once, whatever the transport."""
        monkeypatch.setattr("repro.experiments.workload._EFFECTIVE_CONFIG_CACHE", {})
        # The window clamp the optimal-window variants require; the others
        # ignore it.
        base = ScenarioConfig(packet_target=100, newreno_max_cwnd=3)
        flows = tuple(FlowSpec(source=index % 3, destination=3, variant=variant)
                      for index in range(1000))
        shared = flows[0].effective_config(base)
        checked = []
        monkeypatch.setattr(TransportProfile, "validate_config",
                            lambda profile, config: checked.append(config))
        spec = ScenarioSpec(topology=chain_topology(hops=3),
                            workload=Workload(flows=flows), config=base)
        assert len(checked) == 1 and checked[0] is shared
        assert all(flow.effective_config(base) is shared for flow in spec.workload)

    def test_sorted_timeline_is_stable(self):
        spec = ScenarioSpec(
            topology=chain_topology(hops=2),
            timeline=(
                ScenarioEvent.node_down(5.0, node=1),
                ScenarioEvent.node_up(2.0, node=1),
                ScenarioEvent.link_down(2.0, 0, 1),
            ),
        )
        ordered = spec.sorted_timeline()
        assert [event.time for event in ordered] == [2.0, 2.0, 5.0]
        # Equal-time events keep declaration order.
        assert ordered[0].action == "node-up"
        assert ordered[1].action == "link-down"

    def test_with_config_overrides(self):
        spec = ScenarioSpec(topology=chain_topology(hops=2))
        assert spec.with_config(packet_target=77).config.packet_target == 77

    def test_legacy_compile_is_bit_identical(self):
        """Scenario(topology, config) and the compiled spec produce the
        identical event stream — the compatibility guarantee the golden
        traces rely on."""
        config = ScenarioConfig(variant="vegas", packet_target=60,
                                max_sim_time=40.0, seed=3)

        def run_legacy():
            reset_packet_ids()
            tracer = Tracer(enabled=True)
            Scenario(chain_topology(hops=3), config, tracer=tracer).run()
            return trace_digest(tracer)

        def run_spec():
            reset_packet_ids()
            tracer = Tracer(enabled=True)
            spec = ScenarioSpec.from_legacy(chain_topology(hops=3), config)
            Scenario(spec, tracer=tracer).run()
            return trace_digest(tracer)

        assert run_legacy() == run_spec()

    def test_scenario_rejects_spec_plus_config(self):
        spec = ScenarioSpec(topology=chain_topology(hops=2))
        with pytest.raises(ConfigurationError):
            Scenario(spec, ScenarioConfig())

    def test_scenario_requires_config_with_topology(self):
        with pytest.raises(ConfigurationError):
            Scenario(chain_topology(hops=2))


class TestScenarioBuilder:
    def test_fluent_composition(self):
        spec = (
            ScenarioBuilder("demo")
            .topology("chain", hops=4)
            .configure(packet_target=50, seed=9)
            .flow(0, 4, variant="newreno")
            .flow(0, 4, variant="vegas", label="bg")
            .start_flow(2, at=3.0)
            .node_down(2, at=10.0)
            .node_up(2, at=12.0)
            .build()
        )
        assert spec.name == "demo"
        assert spec.config.packet_target == 50
        assert len(spec.workload) == 2
        assert [event.action for event in spec.timeline] == [
            "flow-start", "node-down", "node-up"]

    def test_topology_required(self):
        with pytest.raises(ConfigurationError):
            ScenarioBuilder().build()

    def test_params_with_prebuilt_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioBuilder().topology(chain_topology(hops=2), hops=3)

    def test_flows_from_topology_requires_topology_first(self):
        with pytest.raises(ConfigurationError):
            ScenarioBuilder().flows_from_topology()

    def test_flows_from_topology_defaults_to_topology_flows(self):
        spec = (ScenarioBuilder().topology("grid")
                .flows_from_topology(variant="vegas").build())
        assert len(spec.workload) == 6

    def test_base_config_plus_configure(self):
        base = ScenarioConfig(packet_target=500, seed=4)
        spec = (ScenarioBuilder().topology("chain", hops=2)
                .base_config(base).configure(seed=11).build())
        assert spec.config.packet_target == 500
        assert spec.config.seed == 11


class TestMixedTransportWorkload:
    def test_secondary_flow_count(self):
        topology = grid_topology()
        workload = mixed_transport_workload(topology, primary="newreno",
                                            secondary="vegas", secondary_flows=2)
        variants = [flow.variant for flow in workload]
        assert variants[:4] == [TransportVariant.NEWRENO] * 4
        assert variants[4:] == [TransportVariant.VEGAS] * 2

    def test_secondary_count_clamped(self):
        workload = mixed_transport_workload(chain_topology(hops=2),
                                            secondary_flows=10)
        assert [flow.variant for flow in workload] == [TransportVariant.VEGAS]

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            mixed_transport_workload(chain_topology(hops=2), secondary_flows=-1)
