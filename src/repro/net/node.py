"""A node: the full protocol stack wired together.

Each node of the paper's networks owns one radio on the shared channel, an
interface queue, an 802.11 DCF MAC, a routing agent (AODV by default, static
optionally) and any number of transport agents demultiplexed by destination
port::

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

A topology's :class:`~repro.link.plan.LinkPlan` may instead put a node on a
wired bus (a :class:`~repro.link.wired.WiredPort` in place of the radio and
MAC) or on both planes (a gateway, with one interface queue per plane).

The ``position`` passed at construction is the node's *initial* placement; in
mobile scenarios a :class:`repro.mobility.base.MobilityManager` updates the
authoritative position held by the channel (``channel.position_of(node_id)``)
as the simulation runs.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional

from repro.core.engine import Simulator
from repro.core.errors import ConfigurationError
from repro.core.randomness import RandomManager
from repro.core.tracing import NULL_TRACER, Tracer
from repro.link.gateway import GatewayAodvRouting, GatewayStaticRouting
from repro.link.wired import WiredBus, WiredPort
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
    """One node with its complete protocol stack, built from its link-plan
    role.

    A node with a ``channel`` gets a radio and an 802.11 MAC; a node with a
    ``bus`` gets a :class:`~repro.link.wired.WiredPort`; a node with both is
    a *gateway* whose routing agent is the matching
    :mod:`repro.link.gateway` variant, forwarding between the two.  The
    routing agent is built once, after the interfaces.

    Args:
        sim: Simulation engine.
        node_id: Unique non-negative node identifier.
        position: 2-D position on the plane (metres).
        channel: Shared wireless channel, or ``None`` for a node with no
            radio.
        timing: MAC timing parameters (bandwidth dependent).
        randomness: Random-stream manager; the node derives per-layer streams.
        routing: ``"aodv"`` (default) or ``"static"``.
        aodv_config: Optional AODV constants override.
        tracer: Optional tracer shared across the stack.
        metrics: Optional metrics registry shared across the stack; every
            layer of this node registers its stats under
            ``<layer>.node<N>``.
        bus: The wired bus the node has a port on, or ``None``.
        wired_next_hops: Destination -> next hop over the bus
            (:meth:`repro.link.plan.LinkPlan.wired_next_hops`).  A gateway's
            wired table; the whole static table of a wired-only node.
        wireless_subnet: A gateway's own wireless subnet; an AODV gateway
            drops data for a destination in neither it nor the wired table.

    Attributes:
        radio: The radio, or ``None`` without a channel.
        mac: The 802.11 MAC, or ``None`` without a channel.
        wired_port: The bus port, or ``None`` without a bus.
        queue: The interface queue of the node's first interface: the
            MAC's, or the wired port's on a wired-only node.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        position: Position,
        channel: Optional[WirelessChannel],
        timing: MacTiming,
        randomness: RandomManager,
        routing: str = "aodv",
        aodv_config: Optional[AodvConfig] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
        bus: Optional[WiredBus] = None,
        wired_next_hops: Mapping[int, int] = MappingProxyType({}),
        wireless_subnet: Iterable[int] = (),
    ) -> None:
        if channel is None and bus is None:
            raise ConfigurationError(
                f"node {node_id} needs a channel, a bus or both")
        self.sim = sim
        self.node_id = node_id
        self.position = position
        self.tracer = tracer
        self.metrics = metrics
        self.queue = DropTailQueue()
        self.radio: Optional[Radio] = None
        self.mac: Optional[Ieee80211Mac] = None
        self.wired_port: Optional[WiredPort] = None

        if channel is not None:
            self.radio = Radio(
                sim, node_id, channel,
                capture_threshold=channel.propagation.capture_threshold,
                tracer=tracer,
                metrics=metrics,
            )
            channel.register(self.radio, position)
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
        if bus is not None:
            wired_queue = (self.queue if channel is None
                           else DropTailQueue())
            self.wired_port = WiredPort(
                sim, node_id, bus, wired_queue,
                rng=randomness.stream(f"wired.{node_id}"),
                tracer=tracer, metrics=metrics)

        self.routing = self._build_routing(routing, randomness, aodv_config,
                                           wired_next_hops, wireless_subnet)
        if self.mac is not None:
            self.mac.listener = self.routing
        if self.wired_port is not None:
            self.wired_port.listener = (self.routing.wired_listener
                                        if self.mac is not None
                                        else self.routing)
        self._agents: Dict[int, TransportAgent] = {}

    def _build_routing(
        self,
        routing: str,
        randomness: RandomManager,
        aodv_config: Optional[AodvConfig],
        wired_next_hops: Mapping[int, int],
        wireless_subnet: Iterable[int],
    ) -> RoutingProtocol:
        common = dict(sim=self.sim, node_id=self.node_id, queue=self.queue,
                      deliver_local=self.deliver_local, tracer=self.tracer,
                      metrics=self.metrics)
        gateway = self.mac is not None and self.wired_port is not None
        if gateway:
            common.update(wired_queue=self.wired_port.queue,
                          wired_next_hops=wired_next_hops,
                          wireless_subnet=wireless_subnet)
        if routing == "aodv":
            build = GatewayAodvRouting if gateway else AodvRouting
            return build(rng=randomness.stream(f"aodv.{self.node_id}"),
                         config=aodv_config, **common)
        if routing == "static":
            if gateway:
                return GatewayStaticRouting(next_hops={}, **common)
            return StaticRouting(next_hops=wired_next_hops, **common)
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
