"""End-to-end coverage for heterogeneous-transport scenarios and timelines.

Pins the Workload API v2 acceptance behaviour: a scenario mixing two
transport variants plus a scripted timeline event runs deterministically
(same seed → identical trace digest), both flows make progress and per-flow
metrics stay keyed by spec.
"""

from __future__ import annotations

import pytest

from repro.core.tracing import Tracer, trace_digest
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.scenarios import build_named_scenario
from repro.experiments.workload import FlowSpec, ScenarioEvent, ScenarioSpec
from repro.net.packet import reset_packet_ids
from repro.topology.base import Topology
from repro.topology.chain import chain_topology
from repro.phy.propagation import Position
from repro.transport.newreno import NewRenoSender
from repro.transport.udp import UdpSender
from repro.transport.vegas import VegasSender


def two_flow_chain(hops: int = 3) -> Topology:
    """A chain carrying two end-to-end flows over the same path."""
    positions = {i: Position(x=i * 200.0, y=0.0) for i in range(hops + 1)}
    flows = [(0, hops), (0, hops)]
    return Topology(name=f"chain-{hops}-2flows", positions=positions, flows=flows)


def mixed_chain_spec(**config_overrides) -> ScenarioSpec:
    defaults = dict(variant="newreno", packet_target=80, max_sim_time=60.0,
                    seed=3)
    defaults.update(config_overrides)
    return ScenarioSpec(
        topology=two_flow_chain(),
        workload=(
            FlowSpec(source=0, destination=3, variant="newreno"),
            FlowSpec(source=0, destination=3, variant="vegas", label="vegas-bg"),
        ),
        config=ScenarioConfig(**defaults),
        timeline=(ScenarioEvent.flow_start(2.0, flow=2),),
    )


class TestMixedTransportEndToEnd:
    def test_newreno_and_vegas_coexist_and_both_complete(self):
        scenario = Scenario(mixed_chain_spec())
        result = scenario.run()

        assert isinstance(scenario.senders[0], NewRenoSender)
        assert isinstance(scenario.senders[1], VegasSender)
        assert result.reached_packet_target
        newreno, vegas = result.flows
        assert newreno.variant == "NewReno"
        assert vegas.variant == "Vegas"
        assert newreno.delivered_packets > 0
        assert vegas.delivered_packets > 0
        assert result.variant == "NewReno+Vegas"
        assert "NewReno+Vegas" in result.name

    def test_per_flow_metrics_keyed_by_flow_index(self):
        result = Scenario(mixed_chain_spec()).run()
        flow1 = result.metric_total("tcp.flow1.packets_delivered")
        flow2 = result.metric_total("tcp.flow2.packets_delivered")
        assert flow1 == result.flow(1).delivered_packets
        assert flow2 == result.flow(2).delivered_packets
        assert flow1 + flow2 == result.delivered_packets
        assert result.flow_by_label("vegas-bg").flow_id == 2
        assert [f.flow_id for f in result.flows_for_variant("Vegas")] == [2]

    def test_event_started_flow_waits_for_its_event(self):
        scenario = Scenario(mixed_chain_spec())
        # Flow 2 is timeline-started at t=2.0: not yet started at build time,
        # started once the run passes the event.
        assert not scenario.applications[1].started
        scenario.run()
        assert scenario.applications[1].started
        assert scenario.metrics.snapshot()["app.flow2.started_at"] == pytest.approx(2.0)

    def test_mixed_scenario_with_timeline_is_deterministic(self):
        """Acceptance criterion: mixed variants + a timeline event, same seed
        → identical trace digest."""

        def run_once() -> str:
            reset_packet_ids()
            tracer = Tracer(enabled=True)
            Scenario(mixed_chain_spec(), tracer=tracer).run()
            return trace_digest(tracer)

        first, second = run_once(), run_once()
        assert first == second

    def test_mixed_preset_is_deterministic(self):
        def run_once() -> str:
            reset_packet_ids()
            tracer = Tracer(enabled=True)
            build_named_scenario("chain7-mixed-newreno-vegas", tracer=tracer,
                                 packet_target=60, seed=5,
                                 max_sim_time=40.0).run()
            return trace_digest(tracer)

        assert run_once() == run_once()

    def test_udp_background_preset_builds_mixed_senders(self):
        scenario = build_named_scenario("random50-tcp-with-udp-background",
                                        packet_target=40, max_sim_time=30.0)
        assert isinstance(scenario.senders[-1], UdpSender)
        assert all(isinstance(sender, NewRenoSender)
                   for sender in scenario.senders[:-1])


class TestTimelineNodeEvents:
    def test_node_down_breaks_and_node_up_repairs_the_chain(self):
        spec = ScenarioSpec(
            name="break-repair",
            topology=chain_topology(hops=3),
            workload=(FlowSpec(0, 3, variant="newreno"),),
            config=ScenarioConfig(packet_target=400, max_sim_time=120.0, seed=3),
            timeline=(ScenarioEvent.node_down(8.0, 2),
                      ScenarioEvent.node_up(16.0, 2)),
        )
        scenario = Scenario(spec)
        result = scenario.run()
        # Both events fired…
        assert result.metric_total("scenario.timeline.node-down") == 1
        assert result.metric_total("scenario.timeline.node-up") == 1
        # …the outage forced transport losses…
        assert result.flow(1).retransmissions > 0
        # …and after the repair the flow still finished the target.
        assert result.reached_packet_target

    def test_flow_stop_time_stops_the_application(self):
        spec = ScenarioSpec(
            name="bounded-udp",
            topology=chain_topology(hops=2),
            workload=(
                FlowSpec(0, 2, variant="paced-udp", stop_time=5.0),),
            config=ScenarioConfig(variant="paced-udp", packet_target=10_000,
                                  max_sim_time=20.0, seed=1),
        )
        scenario = Scenario(spec)
        result = scenario.run()
        assert not result.reached_packet_target
        sent = scenario.senders[0].datagrams_sent
        assert 0 < sent < 10_000
        # The CBR source stopped at t=5: the event queue drains and the run
        # ends well before the 20 s wall instead of pacing packets forever.
        assert 5.0 <= result.simulated_time < 20.0

    def test_flow_start_event_overrides_a_later_cbr_start_time(self):
        # The event takes over the schedule even though the CBR source holds
        # its own copy of the (later) configured start time.
        spec = ScenarioSpec(
            name="early-udp",
            topology=chain_topology(hops=2),
            workload=(
                FlowSpec(0, 2, variant="paced-udp", start_time=30.0),),
            config=ScenarioConfig(variant="paced-udp", packet_target=10_000,
                                  max_sim_time=10.0, seed=1),
            timeline=(ScenarioEvent.flow_start(1.0, flow=1),),
        )
        scenario = Scenario(spec)
        result = scenario.run()
        assert scenario.applications[0].started
        # Traffic actually flowed long before the configured t=30 start.
        assert scenario.senders[0].datagrams_sent > 0
        assert result.flow(1).delivered_packets > 0

    def test_flow_packet_limit_bounds_the_transfer(self):
        spec = ScenarioSpec(
            name="bounded-tcp",
            topology=chain_topology(hops=2),
            workload=(
                FlowSpec(0, 2, variant="newreno", packet_limit=25),),
            config=ScenarioConfig(packet_target=10_000, max_sim_time=30.0, seed=1),
        )
        result = Scenario(spec).run()
        assert result.flow(1).delivered_packets == 25

