"""Gateway nodes and wired-only nodes.

A *gateway* owns one interface per attached link layer — the usual 802.11
radio/MAC stack on the wireless side plus a :class:`~repro.link.wired.WiredPort`
on a shared bus — and forwards packets between them.  Addressing is the static
netmask split described by the scenario's :class:`~repro.link.plan.LinkPlan`:
destinations reachable over the wired port are looked up in a
directly-connected/next-gateway table built from the plan, everything else
goes through the normal wireless routing (static tables or AODV within the
gateway's own subnet).

The wired port's ingress deliberately does **not** feed the wireless routing
protocol's ``on_mac_delivery``: AODV learns a one-hop *wireless* neighbour
route from every frame it hears, and a wired peer is not a wireless
neighbour.  A small :class:`_WiredIngress` adapter keeps the planes separate
and hands wired arrivals to the gateway's forwarding logic directly.

:class:`WiredNode` covers the degenerate case of a node with *only* a wired
port (a node its plan puts on a bus but not on the radio plane): it reuses
:class:`~repro.net.node.Node`'s transport/agent plumbing with the radio and
802.11 MAC replaced by a bus port.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from repro.core.engine import Simulator
from repro.core.errors import ConfigurationError
from repro.core.tracing import NULL_TRACER, Tracer
from repro.link.wired import WiredBus, WiredPort
from repro.mac.frames import attach_data_header
from repro.mac.queue import DropTailQueue
from repro.metrics import MetricsRegistry, NULL_METRICS
from repro.net.headers import BROADCAST
from repro.net.interfaces import MacListener
from repro.net.node import Node
from repro.net.packet import Packet
from repro.phy.propagation import Position
from repro.routing.aodv import AodvConfig, AodvRouting
from repro.routing.base import RoutingStats
from repro.routing.static import StaticRouting


class _WiredIngress(MacListener):
    """MacListener adapter a gateway's wired port reports into.

    Keeps the wired plane out of the wireless routing protocol's listener
    callbacks (AODV must not learn wired peers as wireless neighbours).
    """

    def __init__(self, gateway: "GatewayForwardingMixin") -> None:
        self._gateway = gateway

    def on_mac_delivery(self, packet: Packet) -> None:
        self._gateway.on_wired_delivery(packet)

    def on_mac_send_failure(self, packet: Packet, next_hop: int) -> None:
        self._gateway.on_wired_send_failure(packet, next_hop)

    def on_mac_send_success(self, packet: Packet, next_hop: int) -> None:
        pass


class GatewayRoutingStats(RoutingStats):
    """A gateway's routing counters: the common ones plus its own drop."""

    __slots__ = {
        "unknown_subnet_drops": "Packets dropped at a gateway because no subnet "
                                "(wireless or wired) claims the destination.",
    }


class GatewayForwardingMixin:
    """Wired dispatch shared by the static and AODV gateway routings.

    Mixed into a concrete :class:`~repro.routing.base.RoutingProtocol`; uses
    its ``stats``, ``tracer``, ``deliver_local`` and ``_deliver_or_forward``.
    """

    def _init_gateway(self, wired_queue: DropTailQueue,
                      wired_next_hops: Mapping[int, int],
                      wireless_subnet: Iterable[int],
                      metrics: MetricsRegistry = NULL_METRICS) -> None:
        self._wired_queue = wired_queue
        self._wired_next_hops = dict(wired_next_hops)
        self._wireless_subnet = frozenset(wireless_subnet)
        self.wired_listener: MacListener = _WiredIngress(self)
        # Takes over the node's ``route.node<N>`` prefix from the record the
        # routing agent just registered (and from the agent it replaces).
        self.stats = GatewayRoutingStats(metrics, prefix=f"route.node{self.node_id}")

    @property
    def wired_next_hops(self) -> Mapping[int, int]:
        """Wired forwarding table (destination -> next hop on the bus)."""
        return dict(self._wired_next_hops)

    def _wired_hop_for(self, destination: int) -> Optional[int]:
        return self._wired_next_hops.get(destination)

    def _enqueue_to_wired(self, packet: Packet, next_hop: int) -> bool:
        """Frame a packet for the wired port and enqueue it."""
        attach_data_header(packet, src=self.node_id, dst=next_hop, nav=0.0,
                           retry=False)
        accepted = self._wired_queue.enqueue(packet)
        if not accepted:
            self.stats.packets_dropped_queue_full += 1
            self.tracer.record(self.sim.now, "route", "queue_drop",
                               node=self.node_id, uid=packet.uid)
        return accepted

    def _drop_unknown_subnet(self, packet: Packet) -> None:
        ip = packet.require_ip()
        self.stats.unknown_subnet_drops += 1
        self.stats.packets_dropped_no_route += 1
        self.tracer.record(self.sim.now, "route", "unknown_subnet",
                           node=self.node_id, dst=ip.dst, uid=packet.uid)

    # ------------------------------------------------------------------
    # Wired plane (called through the _WiredIngress adapter)
    # ------------------------------------------------------------------
    def on_wired_delivery(self, packet: Packet) -> None:
        """Packet handed up by the wired port."""
        self._deliver_or_forward(packet)

    def on_wired_send_failure(self, packet: Packet, next_hop: int) -> None:
        """Wired ports have no repair: count the loss and drop the packet."""
        self.stats.link_failures += 1
        self.stats.packets_dropped_link_failure += 1
        self.tracer.record(self.sim.now, "route", "link_failure",
                           node=self.node_id, next_hop=next_hop,
                           uid=packet.uid)


class GatewayStaticRouting(GatewayForwardingMixin, StaticRouting):
    """Static routing with a second, wired forwarding table.

    Wired destinations win: a destination present in ``wired_next_hops`` is
    framed for the bus; otherwise the wireless table applies; a destination
    in neither is an unknown-subnet drop (counted separately from plain
    no-route drops).
    """

    def __init__(self, sim: Simulator, node_id: int, queue: DropTailQueue,
                 deliver_local: Callable[[Packet], None],
                 next_hops: Mapping[int, int],
                 wired_queue: DropTailQueue,
                 wired_next_hops: Mapping[int, int],
                 wireless_subnet: Iterable[int],
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS) -> None:
        StaticRouting.__init__(self, sim, node_id, queue, deliver_local,
                               next_hops, tracer, metrics)
        self._init_gateway(wired_queue, wired_next_hops, wireless_subnet,
                           metrics)

    def _route(self, packet: Packet) -> None:
        ip = packet.require_ip()
        if ip.dst == BROADCAST:
            self._broadcast_to_mac(packet)
            return
        wired_hop = self._wired_hop_for(ip.dst)
        if wired_hop is not None:
            self._enqueue_to_wired(packet, wired_hop)
            return
        next_hop = self._next_hops.get(ip.dst)
        if next_hop is None:
            self._drop_unknown_subnet(packet)
            return
        self._enqueue_to_mac(packet, next_hop)


class GatewayAodvRouting(GatewayForwardingMixin, AodvRouting):
    """AODV on the wireless side, static next-gateway table on the wired side.

    Data for a wired-reachable destination bypasses discovery entirely;
    data for a destination outside both the gateway's own wireless subnet
    and the wired table is dropped (AODV flooding must not leak across the
    wired spine).  Everything else — discovery, repair, RERR — is stock
    AODV confined to the gateway's subnet.
    """

    def __init__(self, sim: Simulator, node_id: int, queue: DropTailQueue,
                 deliver_local: Callable[[Packet], None], rng,
                 wired_queue: DropTailQueue,
                 wired_next_hops: Mapping[int, int],
                 wireless_subnet: Iterable[int],
                 config: Optional[AodvConfig] = None,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS) -> None:
        AodvRouting.__init__(self, sim, node_id, queue, deliver_local, rng,
                             config=config, tracer=tracer, metrics=metrics)
        self._init_gateway(wired_queue, wired_next_hops, wireless_subnet,
                           metrics)

    def _route_data(self, packet: Packet, originated: bool) -> None:
        ip = packet.require_ip()
        if ip.dst != BROADCAST:
            wired_hop = self._wired_hop_for(ip.dst)
            if wired_hop is not None:
                self._enqueue_to_wired(packet, wired_hop)
                return
            if ip.dst != self.node_id and ip.dst not in self._wireless_subnet:
                self._drop_unknown_subnet(packet)
                return
        super()._route_data(packet, originated)


class WiredNode(Node):
    """A node whose only interface is a port on a wired bus.

    Reuses :class:`~repro.net.node.Node`'s transport/agent plumbing
    (``register_agent``, ``deliver_local``, ``send_from_transport``) with the
    radio and 802.11 MAC replaced by a :class:`~repro.link.wired.WiredPort`;
    ``radio`` is ``None`` and energy accounting does not apply.
    """

    def __init__(self, sim: Simulator, node_id: int, position: Position,
                 bus: WiredBus, randomness, routing: str = "static",
                 queue_capacity: int = DropTailQueue.DEFAULT_CAPACITY,
                 aodv_config: Optional[AodvConfig] = None,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS) -> None:
        # Deliberately no Node.__init__: that would build a radio and an
        # 802.11 MAC on the wireless channel this node does not have.
        self.sim = sim
        self.node_id = node_id
        self.position = position
        self.tracer = tracer
        self.metrics = metrics
        self.radio = None
        self.queue = DropTailQueue(capacity=queue_capacity)
        self.port = WiredPort(sim, node_id, bus, self.queue,
                              rng=randomness.stream(f"wired.{node_id}"),
                              tracer=tracer, metrics=metrics)
        self.mac = self.port
        self.routing = self._build_routing(routing, randomness, aodv_config)
        self.port.listener = self.routing
        self._agents = {}
        self.devices = [self.port]


def make_gateway(node: Node, bus: WiredBus, randomness, *,
                 wired_next_hops: Mapping[int, int],
                 wireless_subnet: Iterable[int],
                 routing: str = "static",
                 wired_queue_capacity: int = DropTailQueue.DEFAULT_CAPACITY,
                 aodv_config: Optional[AodvConfig] = None):
    """Turn a regular wireless node into a gateway on ``bus``.

    Attaches a wired port (with its own outbound queue), replaces the node's
    routing protocol with the matching gateway variant, and rewires both
    interfaces' listeners.  Returns the new routing protocol.

    Args:
        node: A fully built wireless :class:`~repro.net.node.Node`.
        bus: The wired bus the gateway joins.
        randomness: The scenario's random manager (streams are drawn by
            name, so re-drawing ``aodv.<id>`` here yields the same stream
            the node's original AODV instance used).
        wired_next_hops: Destination -> next hop over the wired port.
        wireless_subnet: Node ids of the gateway's own wireless subnet.
        routing: ``"static"`` or ``"aodv"`` — must match the node's kind.
        wired_queue_capacity: Capacity of the wired port's outbound queue.
        aodv_config: AODV parameters (``routing="aodv"`` only).
    """
    wired_queue = DropTailQueue(capacity=wired_queue_capacity)
    port = WiredPort(node.sim, node.node_id, bus, wired_queue,
                     rng=randomness.stream(f"wired.{node.node_id}"),
                     tracer=node.tracer, metrics=node.metrics)
    if routing == "aodv":
        gateway = GatewayAodvRouting(
            node.sim, node.node_id, node.queue, node.deliver_local,
            rng=randomness.stream(f"aodv.{node.node_id}"),
            wired_queue=wired_queue, wired_next_hops=wired_next_hops,
            wireless_subnet=wireless_subnet, config=aodv_config,
            tracer=node.tracer, metrics=node.metrics)
    elif routing == "static":
        gateway = GatewayStaticRouting(
            node.sim, node.node_id, node.queue, node.deliver_local,
            next_hops={}, wired_queue=wired_queue,
            wired_next_hops=wired_next_hops,
            wireless_subnet=wireless_subnet,
            tracer=node.tracer, metrics=node.metrics)
    else:
        raise ConfigurationError(
            f"unknown routing protocol {routing!r} for gateway "
            f"{node.node_id}; expected 'aodv' or 'static'")
    node.routing = gateway
    node.mac.listener = gateway
    port.listener = gateway.wired_listener
    node.wired_port = port
    node.add_device(port)
    return gateway
