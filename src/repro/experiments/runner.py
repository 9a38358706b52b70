"""Scenario construction and execution.

A :class:`Scenario` turns a declarative
:class:`~repro.experiments.workload.ScenarioSpec` — topology + per-flow
workload + scenario-wide config + a timeline of scheduled events — into a
live simulated network (channel, nodes, transport agents, applications), runs
it until the configured number of packets has been delivered (or the time
limit is hit) and returns a
:class:`repro.experiments.results.ScenarioResult` with the measures the paper
reports.  The legacy ``Scenario(topology, config)`` entry point still works:
the pair is compiled into a :class:`ScenarioSpec` whose flows all inherit the
scenario-wide defaults, which reproduces the original single-variant
behaviour bit-for-bit (pinned by the golden-trace suite).

The runner is registry-driven on every axis: each flow's transport variant is
resolved through :mod:`repro.transport.registry` (the registered
:class:`~repro.transport.registry.TransportProfile` builds the sender, sink
and driving application for that flow — different flows of one scenario may
use different variants) and the configured mobility model is resolved through
:mod:`repro.mobility.registry` (a :class:`~repro.mobility.base.MobilityManager`
drives node positions for mobile models; the default ``"static"`` model adds
no events at all).  Adding a transport variant or mobility model therefore
never requires touching this module.

Timeline events (:class:`~repro.experiments.workload.ScenarioEvent`) are
scheduled at build time in (time, declaration) order, so a scripted scenario
is exactly as deterministic as an unscripted one: the same seed always yields
the same trace digest.  ``flow-start`` events take over a flow's start
entirely (the flow is not auto-started); ``flow-stop`` stops the driving
application; ``node-down``/``node-up`` and ``link-down``/``link-up`` toggle
scripted radio silence and link blocks at the channel.

Every scenario also owns a :class:`~repro.metrics.registry.MetricsRegistry`
shared by all layers of the stack.  End-of-run scalars are harvested from a
single registry snapshot (no per-layer point-to-point sums); when
``config.metrics`` is true, the registry additionally collects per-flow
cwnd/RTT series and runs a periodic probe sampler (queue occupancy, link
churn, radio energy), all exported through ``ScenarioResult.timeseries``.

Run ``python -m repro.experiments.runner --help`` for the command-line
front end that executes a named scenario and exports its metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.engine import Simulator
from repro.core.errors import ConfigurationError
from repro.core.randomness import RandomManager
from repro.core.tracing import NULL_TRACER, Tracer
from repro.experiments.config import ScenarioConfig
from repro.experiments.results import FlowResult, ScenarioResult
from repro.experiments.workload import FlowSpec, ScenarioEvent, ScenarioSpec
from repro.link.gateway import WiredNode, make_gateway
from repro.link.plan import LinkPlan
from repro.link.registry import get_link_layer, link_layer_profiles
from repro.link.wired import WiredBus
from repro.mac.timing import MacTiming, timing_for_bandwidth
from repro.metrics import MetricsRegistry
from repro.mobility.base import MobilityManager
from repro.mobility.registry import get_mobility
from repro.net.address import FlowAddress
from repro.net.node import Node
from repro.phy.channel import WirelessChannel
from repro.phy.energy import (
    EnergyModel,
    install_energy_probes,
    scenario_energy,
    set_energy_gauges,
)
from repro.phy.propagation import RangePropagationModel
from repro.routing.aodv import AodvConfig
from repro.routing.static import StaticRouting
from repro.topology.base import Topology, all_next_hop_tables
from repro.transport.registry import TransportBuildContext, get_transport
from repro.transport.stats import FlowStats

#: Base port numbers used for flow endpoints.
_SRC_PORT_BASE = 5000
_DST_PORT_BASE = 6000


class Scenario:
    """One runnable simulation scenario.

    Accepts either a complete :class:`~repro.experiments.workload.ScenarioSpec`
    (``Scenario(spec)``) or the legacy ``Scenario(topology, config)`` pair,
    which is compiled into an all-defaults spec.

    Args:
        spec_or_topology: A :class:`ScenarioSpec`, or a topology (node
            placement and flow pattern) paired with ``config``.
        config: Scenario parameters (variant, bandwidth, run length, …);
            required with a topology, forbidden with a spec.
        tracer: Optional tracer shared by every component.

    Attributes:
        spec: The (possibly compiled) :class:`ScenarioSpec` being run.
        workload: The spec's per-flow workload.
        profiles: One resolved transport profile per flow, aligned with
            ``workload.flows`` / ``flow_stats`` / ``senders``.
        metrics: The scenario's freshly created
            :class:`~repro.metrics.registry.MetricsRegistry` (its time-series
            plane follows ``config.metrics``).  Each scenario owns its own
            registry — counters are get-or-create, so sharing one across
            scenarios would double-count every harvested result.
    """

    def __init__(
        self,
        spec_or_topology: Union[ScenarioSpec, Topology],
        config: Optional[ScenarioConfig] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if isinstance(spec_or_topology, ScenarioSpec):
            if config is not None:
                raise ConfigurationError(
                    "pass either a ScenarioSpec or (topology, config), not both"
                )
            spec = spec_or_topology
        else:
            if config is None:
                raise ConfigurationError(
                    "Scenario(topology, ...) requires a ScenarioConfig"
                )
            spec = ScenarioSpec.from_legacy(spec_or_topology, config)
        self.spec = spec
        self.topology = spec.topology
        self.config = spec.config
        self.workload = spec.workload
        self.tracer = tracer
        self.metrics = MetricsRegistry(enabled=self.config.metrics)
        #: Scenario-wide default profile (flows may override per spec).
        self.profile = get_transport(self.config.variant)

        config = self.config
        self.sim = Simulator()
        self.randomness = RandomManager(config.seed)
        self.timing: MacTiming = timing_for_bandwidth(config.bandwidth_mbps)
        propagation = RangePropagationModel(capture_threshold=config.capture_threshold)
        self.channel = WirelessChannel(self.sim, propagation=propagation, tracer=tracer)
        self.link_plan = self._resolve_link_plan()
        self.buses: List[WiredBus] = [
            WiredBus(self.sim, rate_mbps=segment.rate_mbps,
                     propagation_delay=segment.propagation_delay,
                     bus_id=index, tracer=tracer, metrics=self.metrics)
            for index, segment in enumerate(self.link_plan.segments)
        ]
        self.nodes: Dict[int, Node] = {}
        self.mobility: Optional[MobilityManager] = None
        self.flow_stats: List[FlowStats] = []
        self.profiles: List[object] = []
        self.senders: List[object] = []
        self.sinks: List[object] = []
        self.applications: List[object] = []
        self._build()

    # ==================================================================
    # Construction
    # ==================================================================
    def _resolve_link_plan(self) -> LinkPlan:
        """The topology's own link plan, or one built by the configured
        link-layer profile (``"wireless"`` reproduces the historical
        all-radio layout exactly)."""
        plan = getattr(self.topology, "link_plan", None)
        if plan is not None:
            return plan
        return get_link_layer(self.config.link_layer).build_plan(
            self.topology, self.config)

    def _build(self) -> None:
        self._build_nodes()
        self._build_mobility()
        if self.config.routing == "static":
            self._install_static_routes()
        timeline = self.spec.sorted_timeline()
        # Flows with scripted flow-start events are entirely event-driven:
        # they are not auto-started at their spec/stagger start time.
        self._event_started = {event.target for event in timeline
                               if event.action == "flow-start"}
        shares = self._flow_packet_shares()
        for index, flow_spec in enumerate(self.workload, start=1):
            self._build_flow(index, flow_spec, shares[index - 1])
        self._schedule_timeline(timeline)
        self._install_probes()
        self.metrics.start_sampling(self.sim, self.config.metrics_interval)

    def _build_nodes(self) -> None:
        # None keeps the AodvRouting default config object — bit-identical to
        # a build that predates the expanding-ring knob.
        aodv_config = (AodvConfig(expanding_ring=True)
                       if self.config.aodv_expanding_ring else None)
        plan = self.link_plan
        wireless = set(plan.wireless_nodes)
        bus_of: Dict[int, WiredBus] = {}
        for bus, segment in zip(self.buses, plan.segments):
            for node_id in segment.nodes:
                bus_of[node_id] = bus
        for node_id in self.topology.node_ids:
            if node_id in wireless:
                self.nodes[node_id] = Node(
                    sim=self.sim,
                    node_id=node_id,
                    position=self.topology.positions[node_id],
                    channel=self.channel,
                    timing=self.timing,
                    randomness=self.randomness,
                    routing=self.config.routing,
                    queue_capacity=self.config.queue_capacity,
                    aodv_config=aodv_config,
                    tracer=self.tracer,
                    metrics=self.metrics,
                )
            else:
                self.nodes[node_id] = WiredNode(
                    sim=self.sim,
                    node_id=node_id,
                    position=self.topology.positions[node_id],
                    bus=bus_of[node_id],
                    randomness=self.randomness,
                    routing=self.config.routing,
                    queue_capacity=self.config.queue_capacity,
                    aodv_config=aodv_config,
                    tracer=self.tracer,
                    metrics=self.metrics,
                )
        # Gateways get their wired port (and forwarding routing) only after
        # every port-less node registered, so bus port order is stable.
        for gateway_id in sorted(plan.gateways):
            subnet = plan.subnet_of.get(gateway_id)
            make_gateway(
                self.nodes[gateway_id], bus_of[gateway_id], self.randomness,
                wired_next_hops=self._gateway_wired_table(gateway_id, plan),
                wireless_subnet=plan.subnet_members(subnet),
                routing=self.config.routing,
                wired_queue_capacity=self.config.queue_capacity,
                aodv_config=aodv_config,
            )

    def _gateway_wired_table(self, gateway_id: int, plan: LinkPlan) -> Dict[int, int]:
        """Wired forwarding table of one gateway: bus members directly, plus
        every node whose subnet gateway sits on the same bus via that
        gateway."""
        members = set(plan.segments[plan.segment_of(gateway_id)].nodes)
        table: Dict[int, int] = {}
        for member in members:
            if member != gateway_id:
                table[member] = member
        for node_id, subnet in plan.subnet_of.items():
            remote_gateway = plan.gateway_of_subnet.get(subnet)
            if (remote_gateway is not None and remote_gateway != gateway_id
                    and remote_gateway in members):
                table.setdefault(node_id, remote_gateway)
        return table

    def _build_mobility(self) -> None:
        """Attach a mobility manager when the configured model moves nodes.

        For the default ``"static"`` model nothing is built at all: the event
        stream of a static scenario is bit-identical to one constructed
        before mobility existed (pinned by the golden-trace tests).
        """
        config = self.config
        model = get_mobility(config.mobility).build(
            speed=config.mobility_speed, pause=config.mobility_pause,
        )
        if not model.mobile:
            return
        self.mobility = MobilityManager(
            sim=self.sim,
            channel=self.channel,
            model=model,
            update_interval=config.mobility_update_interval,
            rng=self.randomness.stream("mobility"),
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.mobility.start()

    def _install_probes(self) -> None:
        """Register the periodic probes (no-op on a disabled registry).

        Probes cover the pull-style quantities the paper's time-evolution
        analysis needs: per-node interface-queue occupancy (the per-hop
        queueing the window-size figures explain) and cumulative radio
        energy.  Mobility's link-count probe registers itself when the
        manager starts.
        """
        metrics = self.metrics
        if not metrics.enabled:
            return
        for node_id, node in self.nodes.items():
            metrics.add_probe(
                f"mac.node{node_id}.queue_len", node.queue.__len__,
                unit="packets", description="Interface-queue occupancy.")
        install_energy_probes(
            metrics, EnergyModel(), self.sim,
            {node_id: node.radio.stats for node_id, node in self.nodes.items()
             if node.radio is not None})

    def _install_static_routes(self) -> None:
        plan = self.link_plan
        if plan.is_pure_wireless:
            graph = self.topology.connectivity_graph(self.channel.propagation)
            tables = all_next_hop_tables(graph)
            for node_id, node in self.nodes.items():
                routing = node.routing
                if not isinstance(routing, StaticRouting):
                    continue
                for destination, next_hop in tables.get(node_id, {}).items():
                    routing.set_next_hop(destination, next_hop)
            return
        self._install_static_routes_heterogeneous(plan)

    def _install_static_routes_heterogeneous(self, plan: LinkPlan) -> None:
        """Static tables for a plan with wired segments.

        Wireless nodes get shortest-path tables within their own radio
        component plus a default route towards their subnet's gateway for
        everything else; wired-only nodes get directly-connected routes to
        their bus peers plus next-gateway routes for remote subnets.
        Gateways' wired tables were installed at construction — here they
        only receive their wireless-component table.
        """
        all_ids = set(self.topology.node_ids)
        gateways = set(plan.gateways)
        wireless_positions = {node_id: self.topology.positions[node_id]
                              for node_id in plan.wireless_nodes}
        tables: Dict[int, Dict[int, int]] = {}
        if wireless_positions:
            radio_plane = Topology(name=f"{self.topology.name}-radio-plane",
                                   positions=wireless_positions)
            graph = radio_plane.connectivity_graph(self.channel.propagation)
            tables = all_next_hop_tables(graph)
        bus_members: Dict[int, set] = {}
        for segment in plan.segments:
            for node_id in segment.nodes:
                bus_members[node_id] = set(segment.nodes)
        for node_id, node in self.nodes.items():
            routing = node.routing
            if not isinstance(routing, StaticRouting):
                continue
            local = tables.get(node_id, {})
            for destination, next_hop in local.items():
                routing.set_next_hop(destination, next_hop)
            if node_id in gateways:
                continue
            if node_id in wireless_positions:
                subnet = plan.subnet_of.get(node_id)
                gateway = plan.gateway_of_subnet.get(subnet)
                toward_gateway = local.get(gateway)
                if toward_gateway is not None:
                    routing.set_default_next_hop(toward_gateway)
            else:
                members = bus_members.get(node_id, set())
                for destination in members - {node_id}:
                    routing.set_next_hop(destination, destination)
                for destination in all_ids - members - {node_id}:
                    subnet = plan.subnet_of.get(destination)
                    gateway = plan.gateway_of_subnet.get(subnet)
                    if gateway is not None and gateway in members:
                        routing.set_next_hop(destination, gateway)

    def _flow_packet_shares(self) -> List[int]:
        """Per-flow shares of ``packet_target``, remainder spread over the
        leading flows so the shares always sum to exactly the target.

        The share feeds each flow's batch-means batch size
        (``share // batch_count``); before the remainder distribution a
        target not divisible by ``flows * batch_count`` silently under-sized
        every flow's batches.
        """
        flows = max(1, len(self.workload))
        base, remainder = divmod(self.config.packet_target, flows)
        return [base + (1 if index < remainder else 0) for index in range(flows)]

    def _per_flow_batch_size(self) -> int:
        """Deprecated equal-share batch size (kept for external callers);
        the builder now uses :meth:`_flow_packet_shares` per flow."""
        flows = max(1, len(self.workload))
        return max(1, self.config.packet_target // (flows * self.config.batch_count))

    def _build_flow(self, index: int, flow_spec: FlowSpec, packet_share: int) -> None:
        config = flow_spec.effective_config(self.config)
        profile = get_transport(config.variant)
        self.profiles.append(profile)
        flow = FlowAddress(
            src_node=flow_spec.source,
            src_port=_SRC_PORT_BASE + index,
            dst_node=flow_spec.destination,
            dst_port=_DST_PORT_BASE + index,
        )
        batch_size = max(1, packet_share // config.batch_count)
        stats = FlowStats(flow_id=index, batch_size=batch_size,
                          registry=self.metrics)
        self.flow_stats.append(stats)
        if flow_spec.start_time is not None:
            start_time = flow_spec.start_time
        else:
            start_time = (index - 1) * config.flow_start_stagger

        context = TransportBuildContext(
            sim=self.sim, flow=flow, stats=stats, config=config,
            timing=self.timing, tracer=self.tracer,
            data_limit=flow_spec.packet_limit,
        )
        sender = profile.build_sender(context)
        sink = profile.build_sink(context)
        self.nodes[flow.src_node].register_agent(sender)
        self.nodes[flow.dst_node].register_agent(sink)
        application = profile.build_application(context, sender, start_time)
        application.bind_metrics(self.metrics, f"app.flow{index}")
        if index not in self._event_started:
            application.schedule_start()
        if flow_spec.stop_time is not None:
            self.sim.schedule_at(flow_spec.stop_time, application.stop)

        self.senders.append(sender)
        self.sinks.append(sink)
        self.applications.append(application)

    # ==================================================================
    # Timeline execution
    # ==================================================================
    def _schedule_timeline(self, timeline) -> None:
        """Schedule every timeline event in (time, declaration) order.

        Scheduling happens entirely at build time, so a scripted scenario's
        event stream is as deterministic as an unscripted one.
        """
        for event in timeline:
            # Register the per-action counter up front (deterministic
            # registry contents regardless of which events end up firing
            # before the run stops).
            self.metrics.counter(
                f"scenario.timeline.{event.action}", unit="events",
                description="Timeline events applied by the scenario runner.")
            self.sim.schedule_at(event.time, self._apply_event, event)

    def _apply_event(self, event: ScenarioEvent) -> None:
        """Apply one scheduled :class:`ScenarioEvent` (called by the engine)."""
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "scenario", event.action,
                               target=event.target, peer=event.peer)
        self.metrics.counter(f"scenario.timeline.{event.action}").inc()
        action = event.action
        if action == "flow-start":
            self.applications[event.target - 1].start_now()
        elif action == "flow-stop":
            self.applications[event.target - 1].stop()
        elif action == "node-down":
            self.channel.set_node_down(event.target, True)
        elif action == "node-up":
            self.channel.set_node_down(event.target, False)
        elif action == "link-down":
            self._set_link_blocked(event.target, event.peer, True)
        elif action == "link-up":
            self._set_link_blocked(event.target, event.peer, False)
        else:  # pragma: no cover - ScenarioEvent validates its action
            raise ConfigurationError(f"unknown timeline action {action!r}")

    def _set_link_blocked(self, target: int, peer: int, blocked: bool) -> None:
        """Route a link block to the bus carrying both endpoints, falling
        back to the wireless channel (which validates unknown nodes)."""
        for bus in self.buses:
            node_ids = set(bus.node_ids)
            if target in node_ids and peer in node_ids:
                bus.set_link_blocked(target, peer, blocked)
                return
        self.channel.set_link_blocked(target, peer, blocked)

    # ==================================================================
    # Execution
    # ==================================================================
    @property
    def total_delivered(self) -> int:
        """Total in-order packets delivered across all flows so far."""
        return sum(stats.packets_delivered for stats in self.flow_stats)

    def run(self) -> ScenarioResult:
        """Run until the packet target (or time limit) and collect results."""
        config = self.config
        reached = False
        while self.sim.now < config.max_sim_time:
            horizon = min(self.sim.now + config.run_slice, config.max_sim_time)
            processed = self.sim.run(until=horizon)
            if self.total_delivered >= config.packet_target:
                reached = True
                break
            if processed == 0 and self.sim.pending_events == 0:
                break
        return self._collect_results(reached)

    # ==================================================================
    # Result collection
    # ==================================================================
    def _collect_results(self, reached_target: bool) -> ScenarioResult:
        """Harvest the registry into a :class:`ScenarioResult`.

        All network-wide scalars come out of the single metrics snapshot
        (wildcard sums over the hierarchical names) instead of per-layer
        loops over nodes, so every run path shares one harvesting story.
        """
        now = self.sim.now
        metrics = self.metrics
        energy = self._energy_report(now)
        # Handlers invoked = events through the queue + edges run in place.
        metrics.gauge("core.events_processed", unit="events").set(
            self.sim.events_processed)
        metrics.gauge("core.edges_in_place", unit="events").set(
            self.sim.edges_in_place)
        for bus in self.buses:
            bus.finalize_utilization(now)

        flow_results = []
        for stats, flow_spec, profile in zip(self.flow_stats, self.workload,
                                             self.profiles):
            flow_results.append(
                self._flow_result(stats, flow_spec, profile.label, now))

        dropped = metrics.total("mac.node*.data_dropped_retry")
        succeeded = metrics.total("mac.node*.data_tx_success")
        finished = dropped + succeeded
        return ScenarioResult(
            name=f"{self.spec.display_name}/{self._variant_label()}"
                 f"/{self.config.bandwidth_mbps:g}Mbps",
            variant=self._variant_label(),
            bandwidth_mbps=self.config.bandwidth_mbps,
            simulated_time=now,
            delivered_packets=self.total_delivered,
            flows=flow_results,
            false_route_failures=int(metrics.total("route.node*.false_route_failures")),
            link_layer_drop_probability=dropped / finished if finished else 0.0,
            mac_frames_sent=int(metrics.total("phy.node*.frames_sent")),
            reached_packet_target=reached_target,
            energy=energy,
            metrics=metrics.snapshot(),
            timeseries=metrics.timeseries_data() if metrics.enabled else None,
        )

    def _energy_report(self, now: float):
        model = EnergyModel()
        radio_stats = {node_id: node.radio.stats
                       for node_id, node in self.nodes.items()
                       if node.radio is not None}
        set_energy_gauges(self.metrics, model, now, radio_stats)
        airtimes = [
            {
                "time_transmitting": stats.time_transmitting,
                "time_receiving": stats.time_receiving,
            }
            for stats in radio_stats.values()
        ]
        delivered_bytes = self.metrics.total("tcp.flow*.bytes_delivered")
        return scenario_energy(model, now, airtimes, delivered_bytes)

    def _variant_label(self) -> str:
        """Result label: the single variant's label, or the joined mix.

        Uniform workloads (every flow on the scenario default) keep the
        legacy single-variant label, so existing result names — including
        the golden traces — are unchanged.
        """
        if self.workload.is_uniform(self.config.variant):
            return self.profile.label
        labels = []
        for profile in self.profiles:
            if profile.label not in labels:
                labels.append(profile.label)
        return "+".join(labels)

    def _flow_result(self, stats: FlowStats, flow_spec: FlowSpec,
                     variant_label: str, now: float) -> FlowResult:
        goodput_ci = None
        if stats.completed_batches >= 3:
            interval = stats.batch_goodput()
            goodput_bps = interval.mean * 8.0
            goodput_ci = interval
        else:
            start = stats.first_delivery_time if stats.first_delivery_time is not None else now
            duration = max(now - start, 1e-9)
            goodput_bps = stats.bytes_delivered * 8.0 / duration if stats.bytes_delivered else 0.0
        return FlowResult(
            flow_id=stats.flow_id,
            source=flow_spec.source,
            destination=flow_spec.destination,
            delivered_packets=stats.packets_delivered,
            goodput_bps=goodput_bps,
            goodput_ci=goodput_ci,
            retransmissions=stats.retransmissions,
            retransmissions_per_packet=stats.retransmissions_per_delivered_packet(),
            timeouts=stats.timeouts,
            average_window=stats.average_window(now),
            variant=variant_label,
            label=flow_spec.label,
        )


def run_scenario(
    spec_or_topology: Union[ScenarioSpec, Topology],
    config: Optional[ScenarioConfig] = None,
    tracer: Tracer = NULL_TRACER,
) -> ScenarioResult:
    """Convenience wrapper: build a :class:`Scenario` and run it.

    Accepts a :class:`~repro.experiments.workload.ScenarioSpec`
    (``run_scenario(spec)``) or the legacy ``(topology, config)`` pair.
    """
    return Scenario(spec_or_topology, config, tracer=tracer).run()


# ======================================================================
# Command-line front end
# ======================================================================
def main(argv: Optional[List[str]] = None) -> int:
    """Run a named scenario and (optionally) export its metrics as JSON.

    Examples::

        PYTHONPATH=src python -m repro.experiments.runner --list
        PYTHONPATH=src python -m repro.experiments.runner chain7-vegas-2mbps \\
            --metrics --packets 500 -o chain7_metrics.json

    With ``--metrics`` the exported JSON contains the full
    ``ScenarioResult.to_dict()`` payload including the ``timeseries``
    section (``tcp.flow1.cwnd``, ``mac.node3.queue_len``, …) — the raw
    material of the paper's time-evolution figures.
    """
    # Imported lazily: repro.experiments.scenarios imports this module.
    from repro.experiments.scenarios import available_scenarios, build_named_scenario

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Run one named scenario, optionally exporting metric "
                    "time series (cwnd, queue occupancy, energy) as JSON.",
    )
    parser.add_argument("scenario", nargs="?", default="chain7-vegas-2mbps",
                        help="preset name (default: %(default)s); see --list")
    parser.add_argument("--list", action="store_true",
                        help="list available scenario presets and exit")
    parser.add_argument("--link-layer", default=None, metavar="NAME",
                        help="link-layer profile (see --list-link-layers); "
                             "topologies with their own link plan, e.g. the "
                             "backbone presets, ignore this")
    parser.add_argument("--list-link-layers", action="store_true",
                        help="list registered link-layer profiles and exit")
    parser.add_argument("--metrics", action="store_true",
                        help="enable the time-series metrics plane")
    parser.add_argument("--metrics-interval", type=float, default=None,
                        metavar="S", help="probe sampling cadence in simulated "
                                          "seconds (default: config default)")
    parser.add_argument("--packets", type=int, default=None,
                        help="override the packet target")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the RNG seed")
    parser.add_argument("--max-sim-time", type=float, default=None,
                        help="override the simulated-time limit")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="write the full result (ScenarioResult.to_dict) "
                             "as JSON to this path")
    args = parser.parse_args(argv)

    if args.list:
        # available_scenarios() is sorted; keep the output stable for piping.
        for name in sorted(available_scenarios()):
            print(name)
        return 0
    if args.list_link_layers:
        for profile in link_layer_profiles():
            print(f"{profile.name}: {profile.description}")
        return 0

    overrides: Dict[str, object] = {}
    if args.link_layer is not None:
        overrides["link_layer"] = args.link_layer
    if args.metrics:
        overrides["metrics"] = True
    if args.metrics_interval is not None:
        overrides["metrics_interval"] = args.metrics_interval
    if args.packets is not None:
        overrides["packet_target"] = args.packets
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.max_sim_time is not None:
        overrides["max_sim_time"] = args.max_sim_time

    try:
        scenario = build_named_scenario(args.scenario, **overrides)
    except ConfigurationError as exc:
        # build_named_scenario's message already carries the difflib
        # "did you mean" suggestions and the --list pointer.
        print(exc, file=sys.stderr)
        return 2
    result = scenario.run()

    print(f"{result.name}: {result.delivered_packets} packets in "
          f"{result.simulated_time:.1f} s simulated, aggregate goodput "
          f"{result.aggregate_goodput_kbps:.1f} kbit/s")
    sim = scenario.sim
    print(f"{sim.events_processed + sim.edges_in_place} handlers run: "
          f"{sim.events_processed} events through the queue, "
          f"{sim.edges_in_place} signal edges in place")
    if result.timeseries is not None:
        print(f"{len(result.timeseries)} time series collected:")
        for name, data in sorted(result.timeseries.items()):
            values = data["values"]
            if not values:
                continue
            unit = f" {data['unit']}" if data.get("unit") else ""
            print(f"  {name}: {len(values)} samples, "
                  f"last {values[-1]:.4g}{unit}")

    if args.output is not None:
        from repro.core.io import atomic_write_text

        atomic_write_text(args.output, json.dumps(result.to_dict(), indent=2,
                                                  sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
