"""Scenario construction and execution.

A :class:`Scenario` turns a declarative
:class:`~repro.experiments.workload.ScenarioSpec` — topology + per-flow
workload + scenario-wide config + a timeline of scheduled events — into a
live simulated network (channel, nodes, transport agents, applications), runs
it until the configured number of packets has been delivered (or the time
limit is hit) and returns a
:class:`repro.experiments.results.ScenarioResult` with the measures the paper
reports.  ``Scenario(spec).run()`` is the one way to run a scenario; a spec
without a workload lifts the topology's own flows, every one inheriting the
scenario-wide defaults::

    spec = ScenarioSpec(topology=chain_topology(hops=7),
                        config=ScenarioConfig(variant="vegas"))
    result = Scenario(spec).run()

The runner is driven by name tables on every axis: each flow's transport
variant is an entry of :data:`repro.transport.registry.TRANSPORTS` (its
:class:`~repro.transport.registry.TransportProfile` builds the sender, sink
and driving application for that flow — different flows of one scenario may
use different variants) and the configured mobility model is a builder in
:data:`repro.mobility.registry.MOBILITY_MODELS` (a
:class:`~repro.mobility.base.MobilityManager` drives node positions for
mobile models; the default ``"static"`` model adds no events at all).
Adding a transport variant or mobility model therefore never requires
touching this module.

Timeline events (:class:`~repro.experiments.workload.ScenarioEvent`) are
checked against the built link plan and scheduled at build time in (time,
declaration) order, so a scripted scenario is exactly as deterministic as an
unscripted one: the same seed always yields the same trace digest.
``flow-start`` events take over a flow's start entirely (the flow is not
auto-started); ``flow-stop`` stops the driving application;
``node-down``/``node-up`` and ``link-down``/``link-up`` toggle scripted radio
silence and link blocks at the channel.

Every scenario also owns a :class:`~repro.metrics.registry.MetricsRegistry`
shared by all layers of the stack.  End-of-run scalars are harvested from a
single registry snapshot (no per-layer point-to-point sums); when
``config.metrics`` is true, the registry additionally collects per-flow
cwnd/RTT series and runs a periodic probe sampler (queue occupancy, link
churn, radio energy), all exported through ``ScenarioResult.timeseries``.

``python -m repro run --help`` shows the command line that runs a named
scenario and exports its metrics as JSON.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.engine import Simulator
from repro.core.errors import ConfigurationError
from repro.core.randomness import RandomManager
from repro.core.tracing import NULL_TRACER, Tracer
from repro.experiments.config import ScenarioConfig
from repro.experiments.results import FlowResult, ScenarioResult
from repro.experiments.workload import FlowSpec, ScenarioEvent, ScenarioSpec
from repro.link.plan import LinkPlan
from repro.link.wired import WiredBus
from repro.mac.timing import MacTiming, timing_for_bandwidth
from repro.metrics import MetricsRegistry
from repro.mobility.base import MobilityManager
from repro.mobility.registry import MOBILITY_MODELS
from repro.net.address import FlowAddress
from repro.net.node import Node
from repro.phy.channel import WirelessChannel
from repro.phy.energy import EnergyModel, install_energy_probes, record_energy
from repro.phy.propagation import RangePropagationModel
from repro.phy.radio import Radio
from repro.routing.aodv import AodvConfig
from repro.topology.base import Topology, all_next_hop_tables
from repro.transport.registry import TRANSPORTS, TransportBuildContext
from repro.transport.stats import FlowStats

#: Base port numbers used for flow endpoints.
_SRC_PORT_BASE = 5000
_DST_PORT_BASE = 6000

#: Simulated seconds between checks of the stop condition, so a run can
#: overshoot its packet target by up to one slice of deliveries.
RUN_SLICE = 5.0

#: Gap in seconds between the default start times of successive flows,
#: breaking artificial synchronization at t = 0.
FLOW_START_STAGGER = 0.2

#: Batch-means batches each flow's deliveries are split into (the paper's
#: 11; the first is discarded as the warm-up transient).
BATCH_COUNT = 11


class Scenario:
    """One runnable simulation scenario.

    Args:
        spec: The complete :class:`~repro.experiments.workload.ScenarioSpec`
            to build (topology, workload, config and timeline).
        tracer: Optional tracer shared by every component.

    Attributes:
        spec: The :class:`ScenarioSpec` being run.
        workload: The spec's per-flow workload, a tuple of
            :class:`~repro.experiments.workload.FlowSpec`.
        profiles: One resolved transport profile per flow, aligned with
            ``workload`` / ``flow_stats`` / ``senders``.
        metrics: The scenario's freshly created
            :class:`~repro.metrics.registry.MetricsRegistry` (its time-series
            plane follows ``config.metrics``).  Each scenario owns its own
            registry: its stats records register by name, so a registry
            shared across scenarios would keep only the last one's.

    Raises:
        ConfigurationError: If ``spec`` is not a :class:`ScenarioSpec`, or a
            timeline event targets a node or link the built link plan cannot
            act on (a node-down on a wired-only node, say).
    """

    def __init__(self, spec: ScenarioSpec, *, tracer: Tracer = NULL_TRACER) -> None:
        if not isinstance(spec, ScenarioSpec):
            raise ConfigurationError(
                f"Scenario takes a ScenarioSpec, got {type(spec).__name__}; "
                "build one with ScenarioSpec(topology=..., config=...)"
            )
        self.spec = spec
        self.topology = spec.topology
        self.config = spec.config
        self.workload = spec.workload
        self.tracer = tracer
        self.metrics = MetricsRegistry(enabled=self.config.metrics)

        config = self.config
        self.sim = Simulator()
        self.randomness = RandomManager(config.seed)
        self.timing: MacTiming = timing_for_bandwidth(config.bandwidth_mbps)
        propagation = RangePropagationModel(capture_threshold=config.capture_threshold)
        self.channel = WirelessChannel(self.sim, propagation=propagation, tracer=tracer)
        plan = self.topology.link_plan
        #: The topology's link plan; ``None`` there puts every node on the
        #: radio plane.
        self.link_plan: LinkPlan = (
            plan if plan is not None
            else LinkPlan(wireless_nodes=tuple(self.topology.node_ids)))
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
        #: Timeline events applied so far, by action.
        self._timeline_counts: Dict[str, int] = {}
        self._build()

    # ==================================================================
    # Construction
    # ==================================================================
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
        # One config per distinct variant, however many flows run it.
        configs: Dict[Optional[str], ScenarioConfig] = {}
        for index, flow_spec in enumerate(self.workload, start=1):
            config = configs.get(flow_spec.variant)
            if config is None:
                config = configs[flow_spec.variant] = flow_spec.effective_config(
                    self.config)
            self._build_flow(index, flow_spec, config, shares[index - 1])
        self._schedule_timeline(timeline)
        self._install_probes()
        self.metrics.start_sampling(self.sim, self.config.metrics_interval)

    def _build_nodes(self) -> None:
        """One node per topology node, in node-id order, each built from its
        role in the link plan (a radio, a bus port, or both)."""
        # None keeps the AodvRouting default config object — bit-identical to
        # a build that predates the expanding-ring knob.
        aodv_config = (AodvConfig(expanding_ring=True)
                       if self.config.aodv_expanding_ring else None)
        plan = self.link_plan
        wireless = set(plan.wireless_nodes)
        gateways = set(plan.gateways)
        bus_of: Dict[int, WiredBus] = {}
        for bus, segment in zip(self.buses, plan.segments):
            for node_id in segment.nodes:
                bus_of[node_id] = bus
        for node_id in self.topology.node_ids:
            bus = bus_of.get(node_id)
            self.nodes[node_id] = Node(
                sim=self.sim,
                node_id=node_id,
                position=self.topology.positions[node_id],
                channel=self.channel if node_id in wireless else None,
                timing=self.timing,
                randomness=self.randomness,
                routing=self.config.routing,
                aodv_config=aodv_config,
                tracer=self.tracer,
                metrics=self.metrics,
                bus=bus,
                wired_next_hops=(plan.wired_next_hops(node_id)
                                 if bus is not None else {}),
                wireless_subnet=(plan.subnet_members(plan.subnet_of.get(node_id))
                                 if node_id in gateways else ()),
            )

    def _build_mobility(self) -> None:
        """Attach a mobility manager when the configured model moves nodes.

        For the default ``"static"`` model nothing is built at all: the event
        stream of a static scenario is bit-identical to one constructed
        before mobility existed (pinned by the golden-trace tests).
        """
        config = self.config
        knobs = {"speed": config.mobility_speed, "pause": config.mobility_pause}
        model = MOBILITY_MODELS[config.mobility](
            **{knob: value for knob, value in knobs.items() if value is not None})
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
        install_energy_probes(metrics, EnergyModel(), self.sim, self._radios())

    def _install_static_routes(self) -> None:
        """Static next-hop tables for the radio plane, from the link plan.

        Wireless nodes get shortest-path tables within their own radio
        component plus, in a plan with subnets, a default route towards
        their subnet's gateway for everything else.  Wired tables
        (:meth:`~repro.link.plan.LinkPlan.wired_next_hops`) were installed
        when the nodes were built.  The radio-plane graph keeps the
        topology's position order, so with every node on the radio plane it
        is the topology's own graph.
        """
        plan = self.link_plan
        gateways = set(plan.gateways)
        wireless = set(plan.wireless_nodes)
        radio_plane = Topology(
            name=f"{self.topology.name}-radio-plane",
            positions={node_id: position for node_id, position
                       in self.topology.positions.items() if node_id in wireless})
        tables = all_next_hop_tables(
            radio_plane.connectivity_graph(self.channel.propagation))
        for node_id, local in tables.items():
            routing = self.nodes[node_id].routing
            for destination, next_hop in local.items():
                routing.set_next_hop(destination, next_hop)
            if node_id in gateways:
                continue
            gateway = plan.gateway_of_subnet.get(plan.subnet_of.get(node_id))
            toward_gateway = local.get(gateway)
            if toward_gateway is not None:
                routing.set_default_next_hop(toward_gateway)

    def _flow_packet_shares(self) -> List[int]:
        """Per-flow shares of ``packet_target``, remainder spread over the
        leading flows so the shares always sum to exactly the target.

        The share feeds each flow's batch-means batch size
        (``share // BATCH_COUNT``); before the remainder distribution a
        target not divisible by ``flows * BATCH_COUNT`` silently under-sized
        every flow's batches.
        """
        flows = max(1, len(self.workload))
        base, remainder = divmod(self.config.packet_target, flows)
        return [base + (1 if index < remainder else 0) for index in range(flows)]

    def _build_flow(self, index: int, flow_spec: FlowSpec, config: ScenarioConfig,
                    packet_share: int) -> None:
        profile = TRANSPORTS[config.variant]
        self.profiles.append(profile)
        flow = FlowAddress(
            src_node=flow_spec.source,
            src_port=_SRC_PORT_BASE + index,
            dst_node=flow_spec.destination,
            dst_port=_DST_PORT_BASE + index,
        )
        batch_size = max(1, packet_share // BATCH_COUNT)
        stats = FlowStats(flow_id=index, batch_size=batch_size,
                          registry=self.metrics)
        self.flow_stats.append(stats)
        if flow_spec.start_time is not None:
            start_time = flow_spec.start_time
        else:
            start_time = (index - 1) * FLOW_START_STAGGER

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
        event stream is as deterministic as an unscripted one.  The spec
        checked that each targeted node exists; here each event is checked
        against the built link plan too, so an event nothing could act on
        fails now rather than at its time in the middle of the run.
        """
        for event in timeline:
            self._check_event_target(event)
            # Every action in the timeline is counted, zero or not, so the
            # snapshot's names do not depend on which events fired before
            # the run stopped.
            self._timeline_counts[event.action] = 0
            self.sim.schedule_at(event.time, self._apply_event, event)

    def _apply_event(self, event: ScenarioEvent) -> None:
        """Apply one scheduled :class:`ScenarioEvent` (called by the engine)."""
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "scenario", event.action,
                               target=event.target, peer=event.peer)
        self._timeline_counts[event.action] += 1
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

    def _check_event_target(self, event: ScenarioEvent) -> None:
        """Reject a node or link event the built link plan cannot act on."""
        if event.is_flow_event:
            return
        if event.peer is None:
            if self.nodes[event.target].radio is None:
                raise ConfigurationError(
                    f"timeline event {event.action!r} targets node "
                    f"{event.target}, which has no radio"
                )
        elif self._bus_of_link(event.target, event.peer) is None and (
                self.nodes[event.target].radio is None
                or self.nodes[event.peer].radio is None):
            raise ConfigurationError(
                f"timeline event {event.action!r} targets the link "
                f"{event.target}-{event.peer}, whose nodes share neither a "
                "bus nor radios"
            )

    def _bus_of_link(self, target: int, peer: int) -> Optional[WiredBus]:
        """The bus carrying both endpoints, or ``None``."""
        for bus in self.buses:
            node_ids = set(bus.node_ids)
            if target in node_ids and peer in node_ids:
                return bus
        return None

    def _set_link_blocked(self, target: int, peer: int, blocked: bool) -> None:
        """Route a link block to the bus carrying both endpoints, falling
        back to the wireless channel."""
        bus = self._bus_of_link(target, peer)
        if bus is not None:
            bus.set_link_blocked(target, peer, blocked)
        else:
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
            horizon = min(self.sim.now + RUN_SLICE, config.max_sim_time)
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
        radios = self._radios()
        for radio in radios.values():
            radio.settle()
        (dropped, succeeded, false_route_failures, frames_sent,
         delivered_bytes) = metrics.totals(
            "mac.node*.data_dropped_retry", "mac.node*.data_tx_success",
            "route.node*.false_route_failures", "phy.node*.frames_sent",
            "tcp.flow*.bytes_delivered")
        energy = record_energy(
            metrics, EnergyModel(), now,
            {node_id: radio.stats for node_id, radio in radios.items()},
            delivered_bytes)
        # Handlers invoked = events through the queue + edges run in place.
        metrics.set("core.events_processed", self.sim.events_processed)
        metrics.set("core.edges_in_place", self.sim.edges_in_place)
        for action, count in self._timeline_counts.items():
            metrics.set(f"scenario.timeline.{action}", count)
        for bus in self.buses:
            bus.finalize_utilization(now)

        flow_results = []
        for stats, flow_spec, profile in zip(self.flow_stats, self.workload,
                                             self.profiles):
            flow_results.append(
                self._flow_result(stats, flow_spec, profile.label, now))

        finished = dropped + succeeded
        return ScenarioResult(
            name=f"{self.spec.display_name}/{self._variant_label()}"
                 f"/{self.config.bandwidth_mbps:g}Mbps",
            variant=self._variant_label(),
            bandwidth_mbps=self.config.bandwidth_mbps,
            simulated_time=now,
            delivered_packets=self.total_delivered,
            flows=flow_results,
            false_route_failures=int(false_route_failures),
            link_layer_drop_probability=dropped / finished if finished else 0.0,
            mac_frames_sent=int(frames_sent),
            reached_packet_target=reached_target,
            energy=energy,
            metrics=metrics.snapshot(),
            timeseries=metrics.timeseries_data() if metrics.enabled else None,
        )

    def _radios(self) -> Dict[int, Radio]:
        """Every node's radio, by node id (wired-only nodes have none)."""
        return {node_id: node.radio for node_id, node in self.nodes.items()
                if node.radio is not None}

    def _variant_label(self) -> str:
        """Result label: the single variant's label, or the joined mix.

        Uniform workloads (every flow on the scenario default) keep the
        legacy single-variant label, so existing result names — including
        the golden traces — are unchanged.
        """
        default = self.config.variant
        if all(flow.variant in (None, default) for flow in self.workload):
            return TRANSPORTS[default].label
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
