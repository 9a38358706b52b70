"""Routing-layer base classes.

A routing protocol sits between the node (transport demux) and the MAC's
interface queue.  It receives locally originated packets via
:meth:`RoutingProtocol.send_packet`, receives packets from the MAC via the
:class:`repro.net.interfaces.MacListener` callbacks, and pushes frames to the
MAC by attaching a MAC header (next hop) and enqueueing them on the interface
queue.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.core.engine import Simulator
from repro.core.tracing import NULL_TRACER, Tracer
from repro.mac.frames import attach_data_header
from repro.mac.queue import DropTailQueue
from repro.metrics import MetricsRegistry, NULL_METRICS, StatsRecord
from repro.net.headers import BROADCAST
from repro.net.interfaces import MacListener
from repro.net.packet import Packet


class RoutingStats(StatsRecord):
    """Counters common to all routing protocols (unit: packets), published
    as ``route.node<N>.<field>``.

    ``route_discoveries`` and ``rerrs_sent`` stay zero for protocols without
    on-demand discovery (static routing).
    """

    __slots__ = {
        "packets_originated": "Locally originated data packets routed.",
        "packets_forwarded": "Transit data packets forwarded.",
        "packets_delivered": "Packets delivered to the local stack.",
        "packets_dropped_no_route": "Packets dropped for lack of a route.",
        "packets_dropped_link_failure": "Packets dropped on a link failure.",
        "packets_dropped_queue_full": "Packets dropped at a full interface queue.",
        "link_failures": "MAC retry-limit failures reported to routing.",
        "false_route_failures":
            "Link failures on routes that were actually intact (Fig. 9).",
        "control_packets_sent": "Routing control packets originated.",
        "route_discoveries": "Route discoveries started (AODV RREQ floods).",
        "rerrs_sent": "Route-error messages originated (AODV RERR).",
    }


class RoutingProtocol(MacListener, abc.ABC):
    """Abstract routing protocol.

    Args:
        sim: Simulation engine.
        node_id: Identifier of the owning node.
        queue: The node's interface queue (towards the MAC).
        deliver_local: Callback invoked with packets destined to this node.
        tracer: Optional tracer.
        metrics: Optional metrics registry; routing counters register under
            ``route.node<N>.*``.
    """

    #: Record type of the protocol's counters.
    stats_type = RoutingStats

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        queue: DropTailQueue,
        deliver_local: Callable[[Packet], None],
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.queue = queue
        self.deliver_local = deliver_local
        self.tracer = tracer
        self.stats = self.stats_type(metrics, prefix=f"route.node{node_id}")

    # ------------------------------------------------------------------
    # Downward path
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def send_packet(self, packet: Packet) -> None:
        """Route and transmit a locally originated IP packet."""

    def _enqueue_to_mac(self, packet: Packet, next_hop: int) -> bool:
        """Attach a MAC header for ``next_hop`` and enqueue towards the MAC."""
        attach_data_header(packet, src=self.node_id, dst=next_hop, nav=0.0, retry=False)
        accepted = self.queue.enqueue(packet)
        if not accepted:
            self.stats.packets_dropped_queue_full += 1
            self.tracer.record(self.sim.now, "route", "queue_drop", node=self.node_id,
                               uid=packet.uid)
        return accepted

    def _broadcast_to_mac(self, packet: Packet) -> bool:
        """Enqueue a broadcast frame (no MAC-level acknowledgement)."""
        return self._enqueue_to_mac(packet, BROADCAST)

    # ------------------------------------------------------------------
    # Upward path (MacListener); concrete protocols override as needed.
    # ------------------------------------------------------------------
    def on_mac_send_success(self, packet: Packet, next_hop: int) -> None:
        """Default: nothing to do on a successful MAC exchange."""

    @abc.abstractmethod
    def on_mac_delivery(self, packet: Packet) -> None:
        """Handle a packet handed up by the MAC."""

    @abc.abstractmethod
    def on_mac_send_failure(self, packet: Packet, next_hop: int) -> None:
        """Handle a MAC retry-limit drop for ``packet`` towards ``next_hop``."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _deliver_or_forward(self, packet: Packet) -> None:
        """Deliver a received packet addressed to this node, forward any other.

        ``packet`` is shared with the frame's other receivers and is read
        only; what goes on is a copy, one hop older and readdressed on the
        way down.
        """
        ip = packet.require_ip()
        if ip.dst == self.node_id or ip.dst == BROADCAST:
            self.stats.packets_delivered += 1
            self.deliver_local(packet)
        elif ip.ttl <= 1:
            self.stats.packets_dropped_no_route += 1
        else:
            packet = packet.copy()
            packet.ip.ttl -= 1
            self.forward_packet(packet)

    @abc.abstractmethod
    def forward_packet(self, packet: Packet) -> None:
        """Forward a transit packet towards its destination."""
