"""Unit tests for the Workload API v2 layer (flows, events, specs)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.errors import ConfigurationError
from repro.core.tracing import Tracer, trace_digest
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.workload import (
    FlowSpec,
    ScenarioEvent,
    ScenarioSpec,
    Workload,
    mixed_transport_workload,
)
from repro.net.packet import reset_packet_ids
from repro.topology.base import Topology
from repro.topology.chain import chain_topology
from repro.topology.grid import grid_topology
from repro.transport.registry import TRANSPORTS, TransportProfile


class TestFlowSpec:
    def test_same_endpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(source=1, destination=1)

    def test_unknown_variant_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(source=0, destination=1, variant="cubic")

    def test_variant_spelling_normalised(self):
        flow = FlowSpec(source=0, destination=1, variant=" Vegas-AT ")
        assert flow.variant == "vegas-at"

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

    def test_effective_config_swaps_in_the_flow_variant(self):
        base = ScenarioConfig(variant="newreno", vegas_alpha=3.0)
        assert FlowSpec(0, 1, variant="newreno").effective_config(base) is base
        config = FlowSpec(0, 1, variant="vegas").effective_config(base)
        assert config == base.with_variant("vegas")

    def test_per_flow_parameters_are_gone(self):
        # A flow sets its variant only; run parameters are the scenario's.
        with pytest.raises(TypeError):
            FlowSpec(0, 7, vegas_alpha=4.0)


class TestWorkload:
    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            Workload(flows=())

    def test_from_topology_lifts_endpoint_flows(self):
        workload = Workload.from_topology(grid_topology(), variant="vegas")
        assert len(workload) == 6
        assert all(flow.variant == "vegas" for flow in workload)

    def test_is_uniform_compares_against_the_default(self):
        topology = chain_topology(hops=2)
        assert Workload.from_topology(topology).is_uniform("vegas")
        # Naming the default explicitly is still uniform…
        assert Workload.from_topology(topology,
                                      variant="vegas").is_uniform("vegas")
        # …naming a different variant is not.
        assert not Workload.from_topology(topology,
                                          variant="newreno").is_uniform("vegas")



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

    def test_topology_self_flow_rejected(self):
        chain = chain_topology(hops=2)
        loop = Topology(name="loop", positions=chain.positions, flows=[(1, 1)])
        with pytest.raises(ConfigurationError, match="must differ"):
            ScenarioSpec(topology=loop)

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
        # With the clamp on the scenario config the same spec is valid.
        ScenarioSpec(
            topology=chain_topology(hops=2),
            workload=Workload(flows=(
                FlowSpec(source=0, destination=2, variant="newreno-optwin"),
            )),
            config=ScenarioConfig(newreno_max_cwnd=3.0),
        )

    @pytest.mark.parametrize("variant", TRANSPORTS.names())
    def test_a_thousand_uniform_flows_share_one_validated_config(self, monkeypatch,
                                                                 variant):
        """Set-up cost is per distinct flow variant, not per flow: the spec
        and the runner each resolve (and so validate) one config for the
        thousand flows, whatever the transport."""
        # The window clamp the optimal-window variants require; the others
        # ignore it.
        base = ScenarioConfig(packet_target=100, newreno_max_cwnd=3)
        flows = tuple(FlowSpec(source=index % 3, destination=3, variant=variant)
                      for index in range(1000))
        validated, replaced = [], []
        validate = TransportProfile.validate_config
        monkeypatch.setattr(
            TransportProfile, "validate_config",
            lambda profile, config: validated.append(config) or validate(profile, config))
        monkeypatch.setattr(
            "repro.experiments.workload.replace",
            lambda config, **changes: replaced.append(changes) or replace(config, **changes))
        # The base config runs one variant already: its flows need no copy.
        expected = 0 if variant == base.variant else 1
        spec = ScenarioSpec(topology=chain_topology(hops=3),
                            workload=Workload(flows=flows), config=base)
        assert (len(validated), len(replaced)) == (expected, expected)
        scenario = Scenario(spec)
        assert (len(validated), len(replaced)) == (2 * expected, 2 * expected)
        assert replaced == [{"variant": variant}] * (2 * expected)
        assert len(scenario.senders) == 1000

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

    def test_lifted_and_named_flows_run_identically(self):
        """A spec without a workload runs the topology's flows on the
        config's defaults: the same event stream as naming them by hand."""
        topology = chain_topology(hops=3)
        config = ScenarioConfig(variant="vegas", packet_target=60,
                                max_sim_time=40.0, seed=3)

        def run(spec):
            reset_packet_ids()
            tracer = Tracer(enabled=True)
            Scenario(spec, tracer=tracer).run()
            return trace_digest(tracer)

        lifted = ScenarioSpec(topology=topology, config=config)
        named = ScenarioSpec(topology=topology, config=config,
                             workload=Workload(flows=(FlowSpec(0, 3),)))
        assert lifted.workload == named.workload
        assert run(lifted) == run(named)


class TestOneWayToBuildAndRun:
    def test_scenario_rejects_a_topology_first_argument(self):
        with pytest.raises(ConfigurationError,
                           match=r"ScenarioSpec\(topology=\.\.\., config=\.\.\.\)"):
            Scenario(chain_topology(hops=2))

    def test_scenario_takes_the_tracer_by_keyword_only(self):
        spec = ScenarioSpec(topology=chain_topology(hops=2))
        with pytest.raises(TypeError):
            Scenario(spec, Tracer(enabled=True))

    @pytest.mark.parametrize("package", ["repro", "repro.experiments"])
    @pytest.mark.parametrize("name", ["ScenarioBuilder", "run_scenario",
                                      "execute_study"])
    def test_removed_entry_points_are_gone(self, package, name):
        import importlib

        module = importlib.import_module(package)
        assert name not in module.__all__
        assert not hasattr(module, name)


class TestMixedTransportWorkload:
    def test_secondary_flow_count(self):
        topology = grid_topology()
        workload = mixed_transport_workload(topology, primary="newreno",
                                            secondary="vegas", secondary_flows=2)
        variants = [flow.variant for flow in workload]
        assert variants[:4] == ["newreno"] * 4
        assert variants[4:] == ["vegas"] * 2

    def test_secondary_count_clamped(self):
        workload = mixed_transport_workload(chain_topology(hops=2),
                                            secondary_flows=10)
        assert [flow.variant for flow in workload] == ["vegas"]

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            mixed_transport_workload(chain_topology(hops=2), secondary_flows=-1)
