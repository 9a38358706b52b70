"""Unit tests for the Workload API v2 layer (flows, events, specs)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.errors import ConfigurationError
from repro.core.tracing import Tracer, trace_digest
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.workload import FlowSpec, ScenarioEvent, ScenarioSpec
from repro.net.packet import reset_packet_ids
from repro.topology.base import Topology
from repro.topology.chain import chain_topology
from repro.topology.grid import grid_topology
from repro.transport.registry import TRANSPORTS


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
        assert config == replace(base, variant="vegas")

    def test_per_flow_parameters_are_gone(self):
        # A flow sets its variant only; run parameters are the scenario's.
        with pytest.raises(TypeError):
            FlowSpec(0, 7, vegas_alpha=4.0)


class TestWorkload:
    """A workload is a plain tuple of :class:`FlowSpec` on the spec."""

    def test_empty_workload_rejected(self):
        chain = chain_topology(hops=2)
        with pytest.raises(ConfigurationError, match="at least one flow"):
            ScenarioSpec(topology=chain, workload=())
        # A topology without flows lifts an empty workload: refused too.
        flowless = Topology(name="flowless", positions=chain.positions, flows=[])
        with pytest.raises(ConfigurationError, match="at least one flow"):
            ScenarioSpec(topology=flowless)

    def test_non_flowspec_element_rejected(self):
        with pytest.raises(ConfigurationError, match="FlowSpec instances"):
            ScenarioSpec(topology=chain_topology(hops=3), workload=[(0, 3)])

    def test_a_given_workload_is_held_as_a_tuple(self):
        spec = ScenarioSpec(topology=chain_topology(hops=3),
                            workload=[FlowSpec(0, 3)])
        assert spec.workload == (FlowSpec(0, 3),)
        assert type(spec.workload) is tuple

    def test_no_workload_lifts_endpoint_flows(self):
        spec = ScenarioSpec(topology=grid_topology())
        assert [flow.endpoints for flow in spec.workload] == grid_topology().flows
        assert all(flow.variant is None for flow in spec.workload)

    @pytest.mark.parametrize("variant, label", [
        (None, "Vegas"),
        # Naming the default explicitly is still a single-variant run…
        ("vegas", "Vegas"),
        # …naming a different variant is not.
        ("newreno", "Vegas+NewReno"),
    ])
    def test_result_label_is_single_variant_when_uniform(self, variant, label):
        spec = ScenarioSpec(topology=chain_topology(hops=2), workload=(
            FlowSpec(0, 2), FlowSpec(0, 2, variant=variant)))
        assert Scenario(spec)._variant_label() == label



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
                workload=(FlowSpec(source=0, destination=9),),
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
        # A scenario config with a window clamp runs a per-flow
        # optimal-window flow.
        ScenarioSpec(
            topology=chain_topology(hops=2),
            workload=(
                FlowSpec(source=0, destination=2, variant="newreno-optwin"),
            ),
            config=ScenarioConfig(newreno_max_cwnd=3.0),
        )

    def test_per_flow_optimal_window_flow_builds_with_the_default_clamp(self):
        spec = ScenarioSpec(
            topology=chain_topology(hops=2),
            workload=(FlowSpec(source=0, destination=2, variant="newreno-optwin"),),
            config=ScenarioConfig(variant="vegas"),
        )
        assert Scenario(spec).senders[0].max_cwnd == 3.0

    @pytest.mark.parametrize("variant", TRANSPORTS.names())
    def test_a_thousand_uniform_flows_share_one_validated_config(self, monkeypatch,
                                                                 variant):
        """Set-up cost is per distinct flow variant, not per flow: the spec
        resolves no flow config and the runner one (validated on
        construction) for the thousand flows, whatever the transport."""
        base = ScenarioConfig(packet_target=100)
        flows = tuple(FlowSpec(source=index % 3, destination=3, variant=variant)
                      for index in range(1000))
        validated, replaced = [], []
        validate = ScenarioConfig.__post_init__
        monkeypatch.setattr(
            ScenarioConfig, "__post_init__",
            lambda config: validated.append(config) or validate(config))
        monkeypatch.setattr(
            "repro.experiments.workload.replace",
            lambda config, **changes: replaced.append(changes) or replace(config, **changes))
        spec = ScenarioSpec(topology=chain_topology(hops=3), workload=flows,
                            config=base)
        assert (validated, replaced) == ([], [])
        scenario = Scenario(spec)
        # The base config runs one variant already: its flows need no copy.
        expected = 0 if variant == base.variant else 1
        assert len(validated) == expected
        assert replaced == [{"variant": variant}] * expected
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
                             workload=(FlowSpec(0, 3),))
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
                                      "execute_study", "Workload",
                                      "mixed_transport_workload"])
    def test_removed_entry_points_are_gone(self, package, name):
        import importlib

        module = importlib.import_module(package)
        assert name not in module.__all__
        assert not hasattr(module, name)


    def test_removed_helpers_are_gone(self):
        assert not hasattr(ScenarioConfig, "with_variant")
        assert not hasattr(Scenario(ScenarioSpec(topology=chain_topology(hops=2))),
                           "profile")
        with pytest.raises(ImportError):
            from repro.experiments.workload import Workload  # noqa: F401
        with pytest.raises(ImportError):
            from repro.experiments.workload import mixed_transport_workload  # noqa: F401
