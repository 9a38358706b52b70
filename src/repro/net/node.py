"""A wireless node: the full protocol stack wired together.

Each node owns one radio on the shared channel, an interface queue, an
802.11 DCF MAC, a routing agent (AODV by default, static optionally) and any
number of transport agents demultiplexed by destination port::

    application(s)
        |                (FTP / CBR)
    transport agents     (TCP NewReno / Vegas senders, sinks, UDP)
        |
    routing agent        (AODV or static)
        |
    interface queue      (DropTail, 50 packets)
        |
    802.11 DCF MAC
        |
    radio  --- shared wireless channel <--- mobility manager (moves nodes)

The ``position`` passed at construction is the node's *initial* placement; in
mobile scenarios a :class:`repro.mobility.base.MobilityManager` updates the
authoritative position held by the channel (``channel.position_of(node_id)``)
as the simulation runs.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.engine import Simulator
from repro.core.errors import ConfigurationError
from repro.core.randomness import RandomManager
from repro.core.tracing import NULL_TRACER, Tracer
from repro.mac.ieee80211 import Ieee80211Mac
from repro.mac.queue import DropTailQueue
from repro.mac.timing import MacTiming
from repro.metrics import MetricsRegistry, NULL_METRICS
from repro.net.headers import IpProtocol
from repro.net.packet import Packet
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import Position
from repro.phy.radio import Radio
from repro.routing.aodv import AodvConfig, AodvRouting
from repro.routing.base import RoutingProtocol
from repro.routing.static import StaticRouting
from repro.transport.tcp_base import TransportAgent


class Node:
    """One wireless node with its complete protocol stack.

    Args:
        sim: Simulation engine.
        node_id: Unique non-negative node identifier.
        position: 2-D position on the plane (metres).
        channel: Shared wireless channel.
        timing: MAC timing parameters (bandwidth dependent).
        randomness: Random-stream manager; the node derives per-layer streams.
        routing: ``"aodv"`` (default), ``"static"``, or a pre-built routing
            protocol instance.
        queue_capacity: Interface queue size in packets (the paper uses 50).
        aodv_config: Optional AODV constants override.
        tracer: Optional tracer shared across the stack.
        metrics: Optional metrics registry shared across the stack; every
            layer of this node registers its stats under
            ``<layer>.node<N>``.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        position: Position,
        channel: WirelessChannel,
        timing: MacTiming,
        randomness: RandomManager,
        routing: Union[str, RoutingProtocol] = "aodv",
        queue_capacity: int = DropTailQueue.DEFAULT_CAPACITY,
        aodv_config: Optional[AodvConfig] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.position = position
        self.tracer = tracer
        self.metrics = metrics

        self.radio = Radio(
            sim, node_id, channel,
            capture_threshold=channel.propagation.capture_threshold,
            tracer=tracer,
            metrics=metrics,
        )
        channel.register(self.radio, position)
        self.queue = DropTailQueue(capacity=queue_capacity)
        self.mac = Ieee80211Mac(
            sim=sim,
            node_id=node_id,
            radio=self.radio,
            queue=self.queue,
            timing=timing,
            rng=randomness.stream(f"mac.{node_id}"),
            tracer=tracer,
            metrics=metrics,
        )
        self.routing = self._build_routing(routing, randomness, aodv_config)
        self.mac.listener = self.routing
        self._agents: Dict[int, TransportAgent] = {}
        #: Link-layer devices owned by this node, primary interface first.
        #: Single-radio nodes have exactly one entry; gateway nodes append
        #: their wired port (see :func:`repro.link.gateway.make_gateway`).
        self.devices: list = [self.mac]

    def add_device(self, device: object) -> None:
        """Attach an additional link-layer device (e.g. a gateway's wired port)."""
        self.devices.append(device)

    def _build_routing(
        self,
        routing: Union[str, RoutingProtocol],
        randomness: RandomManager,
        aodv_config: Optional[AodvConfig],
    ) -> RoutingProtocol:
        if isinstance(routing, RoutingProtocol):
            return routing
        if routing == "aodv":
            return AodvRouting(
                sim=self.sim,
                node_id=self.node_id,
                queue=self.queue,
                deliver_local=self.deliver_local,
                rng=randomness.stream(f"aodv.{self.node_id}"),
                config=aodv_config,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        if routing == "static":
            return StaticRouting(
                sim=self.sim,
                node_id=self.node_id,
                queue=self.queue,
                deliver_local=self.deliver_local,
                next_hops={},
                tracer=self.tracer,
                metrics=self.metrics,
            )
        raise ConfigurationError(f"unknown routing protocol {routing!r}")

    # ------------------------------------------------------------------
    # Transport agent management
    # ------------------------------------------------------------------
    def register_agent(self, agent: TransportAgent) -> None:
        """Install a transport agent listening on its ``local_port``."""
        if agent.local_node != self.node_id:
            raise ConfigurationError(
                f"agent for node {agent.local_node} registered on node {self.node_id}"
            )
        if agent.local_port in self._agents:
            raise ConfigurationError(
                f"port {agent.local_port} already bound on node {self.node_id}"
            )
        self._agents[agent.local_port] = agent
        agent.attach(self.send_from_transport)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send_from_transport(self, packet: Packet) -> None:
        """Hand a locally generated IP packet to the routing layer."""
        self.routing.send_packet(packet)

    def deliver_local(self, packet: Packet) -> None:
        """Deliver a packet addressed to this node to the right transport agent."""
        ip = packet.require_ip()
        port: Optional[int] = None
        if ip.protocol is IpProtocol.TCP and packet.tcp is not None:
            port = packet.tcp.dst_port
        elif ip.protocol is IpProtocol.UDP and packet.udp is not None:
            port = packet.udp.dst_port
        if port is None:
            return
        agent = self._agents.get(port)
        if agent is not None:
            agent.receive(packet)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id} @ {self.position.x:.0f},{self.position.y:.0f})"
