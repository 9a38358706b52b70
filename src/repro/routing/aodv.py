"""Ad hoc On-demand Distance Vector routing (AODV, RFC 3561 — simplified).

The implementation covers the mechanisms the paper's results depend on:

* on-demand route discovery: RREQ flooding with duplicate suppression and a
  small rebroadcast jitter, RREP unicast back along the reverse path,
  intermediate-node replies when a sufficiently fresh route is cached;
* data packet buffering during discovery, with bounded retries;
* link-layer failure feedback: when the 802.11 MAC exhausts its retry limits
  the affected routes are invalidated, an RERR is propagated and the packet is
  dropped.  On the paper's *static* topologies every such event is a **false
  route failure** — the link is physically fine, the MAC just lost the
  contention battle — and is counted as such (Figure 9 of the paper).  In
  mobile scenarios (:mod:`repro.mobility`) the same feedback also detects
  *genuine* breaks — a neighbour that moved out of range — and the subsequent
  re-discovery is what repairs a broken route mid-flow;
* route lifetimes with lazy expiry.

Hello messages are not used: like the paper's ns-2 configuration, link failures
are detected purely from link-layer feedback.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from repro.core.engine import Simulator, Timer
from repro.core.tracing import NULL_TRACER, Tracer
from repro.mac.queue import DropTailQueue
from repro.metrics import MetricsRegistry, NULL_METRICS
from repro.net.headers import (
    BROADCAST,
    AodvHeader,
    AodvMessageType,
    IpHeader,
    IpProtocol,
)
from repro.net.packet import Packet
from repro.routing.base import RoutingProtocol
from repro.routing.table import RouteEntry, RoutingTable


@dataclass(frozen=True)
class AodvConfig:
    """Tunable AODV protocol constants.

    Attributes:
        active_route_timeout: Lifetime (s) of a route after last use.
        my_route_timeout: Lifetime (s) granted by a destination in its RREP.
        rreq_retries: Number of RREQ retries before giving up on a destination.
        rreq_wait_time: Initial wait (s) for an RREP; doubled per retry.
        rreq_jitter: Maximum random delay (s) before rebroadcasting an RREQ.
        packet_buffer_size: Maximum data packets buffered per destination
            while a discovery is in progress.
        net_diameter_ttl: TTL used for full-flood RREQs.
        seen_cache_size: Number of recent (originator, rreq_id) pairs kept for
            duplicate suppression.
        expanding_ring: Enable RFC 3561 §6.4 expanding-ring search: RREQs
            start with a small TTL and widen on timeout instead of flooding
            the whole mesh for every discovery.  Off by default — the flood
            behaviour (and with it every existing trace) is untouched unless
            a scenario opts in; the 10k-node city presets do.
        ttl_start: TTL of the first ring.
        ttl_increment: TTL added per unanswered ring.
        ttl_threshold: Once the next ring's TTL would exceed this, jump
            straight to ``net_diameter_ttl`` (the RFC's TTL_THRESHOLD).
        node_traversal_time: Estimated one-hop traversal time (s); each
            sub-diameter ring waits ``2 * node_traversal_time * (ttl + 2)``
            for an RREP (the RFC's RING_TRAVERSAL_TIME) instead of the full
            ``rreq_wait_time`` backoff schedule.
    """

    active_route_timeout: float = 10.0
    my_route_timeout: float = 10.0
    rreq_retries: int = 3
    rreq_wait_time: float = 1.0
    rreq_jitter: float = 0.01
    packet_buffer_size: int = 64
    net_diameter_ttl: int = 64
    seen_cache_size: int = 256
    expanding_ring: bool = False
    ttl_start: int = 2
    ttl_increment: int = 2
    ttl_threshold: int = 7
    node_traversal_time: float = 0.04


@dataclass
class _Discovery:
    """Bookkeeping for one in-progress route discovery."""

    destination: int
    retries: int = 0
    timer: Optional[Timer] = None
    buffer: Deque[Packet] = field(default_factory=deque)
    #: TTL of the last RREQ sent for this discovery (0 = none yet); under
    #: expanding-ring search the ladder widens from here on each timeout.
    ttl: int = 0


class AodvRouting(RoutingProtocol):
    """AODV routing agent for one node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        queue: DropTailQueue,
        deliver_local: Callable[[Packet], None],
        rng,
        config: Optional[AodvConfig] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        super().__init__(sim, node_id, queue, deliver_local, tracer, metrics)
        self.config = config or AodvConfig()
        self.rng = rng
        self.table = RoutingTable()
        self._sequence_number = 0
        self._rreq_id = 0
        self._seen_rreqs: Deque[Tuple[int, int]] = deque(maxlen=self.config.seen_cache_size)
        self._seen_rreq_set: Set[Tuple[int, int]] = set()
        self._discoveries: Dict[int, _Discovery] = {}

    # ==================================================================
    # Downward path: locally originated and forwarded data packets
    # ==================================================================
    def send_packet(self, packet: Packet) -> None:
        """Route a locally originated IP packet (discovering if necessary)."""
        self.stats.packets_originated += 1
        self._route_data(packet, originated=True)

    def forward_packet(self, packet: Packet) -> None:
        """Forward a transit data packet."""
        self.stats.packets_forwarded += 1
        self._route_data(packet, originated=False)

    def _route_data(self, packet: Packet, originated: bool) -> None:
        ip = packet.require_ip()
        if ip.dst == BROADCAST:
            self._broadcast_to_mac(packet)
            return
        route = self.table.lookup(ip.dst, self.sim.now)
        if route is not None:
            self._refresh_route(route)
            self._enqueue_to_mac(packet, route.next_hop)
            return
        if originated:
            self._buffer_and_discover(packet)
        else:
            # An intermediate node without a route reports the breakage back
            # towards the source and drops the packet (no salvaging in AODV).
            self.stats.packets_dropped_no_route += 1
            self._originate_rerr([(ip.dst, self._seq_for(ip.dst) + 1)])

    def _buffer_and_discover(self, packet: Packet) -> None:
        ip = packet.require_ip()
        discovery = self._discoveries.get(ip.dst)
        if discovery is None:
            discovery = _Discovery(destination=ip.dst)
            self._discoveries[ip.dst] = discovery
            discovery.buffer.append(packet)
            self.stats.route_discoveries += 1
            self._send_rreq(discovery)
        else:
            if len(discovery.buffer) >= self.config.packet_buffer_size:
                discovery.buffer.popleft()
                self.stats.packets_dropped_no_route += 1
            discovery.buffer.append(packet)

    # ==================================================================
    # Route discovery
    # ==================================================================
    def _send_rreq(self, discovery: _Discovery) -> None:
        config = self.config
        self._sequence_number += 1
        self._rreq_id += 1
        if config.expanding_ring:
            ttl = discovery.ttl = self._next_ring_ttl(discovery)
            if ttl < config.net_diameter_ttl:
                wait = 2.0 * config.node_traversal_time * (ttl + 2)
            else:
                wait = config.rreq_wait_time * (2 ** discovery.retries)
        else:
            ttl = config.net_diameter_ttl
            wait = config.rreq_wait_time * (2 ** discovery.retries)
        header = AodvHeader(
            message_type=AodvMessageType.RREQ,
            originator=self.node_id,
            destination=discovery.destination,
            originator_seq=self._sequence_number,
            destination_seq=self._seq_for(discovery.destination),
            hop_count=0,
            rreq_id=self._rreq_id,
        )
        packet = Packet(
            payload_size=0,
            ip=IpHeader(src=self.node_id, dst=BROADCAST, protocol=IpProtocol.AODV,
                        ttl=ttl),
            aodv=header,
        )
        self._remember_rreq(self.node_id, self._rreq_id)
        self.stats.control_packets_sent += 1
        if config.expanding_ring:
            # The extra ttl key only exists on the opt-in path, so traces of
            # flood-mode scenarios (everything the goldens pin) are unchanged.
            self.tracer.record(self.sim.now, "aodv", "rreq_send", node=self.node_id,
                               dst=discovery.destination, rreq_id=self._rreq_id,
                               retry=discovery.retries, ttl=ttl)
        else:
            self.tracer.record(self.sim.now, "aodv", "rreq_send", node=self.node_id,
                               dst=discovery.destination, rreq_id=self._rreq_id,
                               retry=discovery.retries)
        self._broadcast_to_mac(packet)

        if discovery.timer is None:
            discovery.timer = Timer(self.sim, lambda d=discovery: self._rreq_timeout(d))
        discovery.timer.start(wait)

    def _next_ring_ttl(self, discovery: _Discovery) -> int:
        """The TTL of the next ring in the expanding-ring ladder."""
        config = self.config
        if discovery.ttl == 0:
            ttl = config.ttl_start
        else:
            ttl = discovery.ttl + config.ttl_increment
            if ttl > config.ttl_threshold:
                ttl = config.net_diameter_ttl
        return min(ttl, config.net_diameter_ttl)

    def _rreq_timeout(self, discovery: _Discovery) -> None:
        if discovery.destination not in self._discoveries:
            return
        if self.table.lookup(discovery.destination, self.sim.now) is not None:
            self._complete_discovery(discovery.destination)
            return
        if (self.config.expanding_ring
                and discovery.ttl < self.config.net_diameter_ttl):
            # Widen the ring; sub-diameter attempts do not consume a retry.
            self._send_rreq(discovery)
            return
        discovery.retries += 1
        if discovery.retries > self.config.rreq_retries:
            self.tracer.record(self.sim.now, "aodv", "discovery_failed", node=self.node_id,
                               dst=discovery.destination, dropped=len(discovery.buffer))
            self.stats.packets_dropped_no_route += len(discovery.buffer)
            if discovery.timer is not None:
                discovery.timer.cancel()
            del self._discoveries[discovery.destination]
            return
        self._send_rreq(discovery)

    def _complete_discovery(self, destination: int) -> None:
        discovery = self._discoveries.pop(destination, None)
        if discovery is None:
            return
        if discovery.timer is not None:
            discovery.timer.cancel()
        route = self.table.lookup(destination, self.sim.now)
        while discovery.buffer:
            packet = discovery.buffer.popleft()
            if route is None:
                self.stats.packets_dropped_no_route += 1
                continue
            self._refresh_route(route)
            self._enqueue_to_mac(packet, route.next_hop)

    # ==================================================================
    # Upward path: packets handed up by the MAC
    # ==================================================================
    def on_mac_delivery(self, packet: Packet) -> None:
        """Dispatch received packets: AODV control vs. data."""
        ip = packet.require_ip()
        previous_hop = packet.mac.src if packet.mac is not None else -1
        if previous_hop >= 0:
            self._learn_neighbor(previous_hop)
        if ip.protocol is IpProtocol.AODV:
            self._handle_control(packet, previous_hop)
            return
        self._deliver_or_forward(packet)

    def on_mac_send_failure(self, packet: Packet, next_hop: int) -> None:
        """Link-layer feedback: the MAC gave up on a unicast transmission.

        On the static topologies of the paper this is always a *false* route
        failure: the neighbour is still there, the frames were lost to
        hidden-terminal contention.  AODV nevertheless tears the route down,
        emits an RERR and drops the packet — exactly the behaviour whose cost
        Figure 9 quantifies.  Under mobility the identical feedback fires for
        *real* breaks too (the ``false_route_failures`` counter then counts
        all link-layer route failures, contention-caused or movement-caused —
        the MAC cannot tell them apart, and neither does AODV).
        """
        self.stats.link_failures += 1
        if next_hop == BROADCAST:
            return
        affected = self.table.invalidate_next_hop(next_hop)
        self.stats.false_route_failures += 1
        self.stats.packets_dropped_link_failure += 1
        self.tracer.record(self.sim.now, "aodv", "link_failure", node=self.node_id,
                           next_hop=next_hop, routes=len(affected), uid=packet.uid)
        if affected:
            self._originate_rerr(
                [(entry.destination, entry.destination_seq + 1) for entry in affected]
            )

    # ==================================================================
    # AODV control message handling
    # ==================================================================
    def _handle_control(self, packet: Packet, previous_hop: int) -> None:
        header = packet.require_aodv()
        if header.message_type is AodvMessageType.RREQ:
            self._handle_rreq(packet, previous_hop)
        elif header.message_type is AodvMessageType.RREP:
            self._handle_rrep(packet, previous_hop)
        elif header.message_type is AodvMessageType.RERR:
            self._handle_rerr(packet, previous_hop)

    def _handle_rreq(self, packet: Packet, previous_hop: int) -> None:
        header = packet.require_aodv()
        key = (header.originator, header.rreq_id)
        if header.originator == self.node_id or self._has_seen_rreq(key):
            return
        self._remember_rreq(*key)

        # Reverse route to the originator through the previous hop.
        self._update_route(
            destination=header.originator,
            next_hop=previous_hop,
            hop_count=header.hop_count + 1,
            destination_seq=header.originator_seq,
            lifetime=self.config.active_route_timeout,
        )

        if header.destination == self.node_id:
            self._sequence_number = max(self._sequence_number, header.destination_seq)
            self._send_rrep(
                originator=header.originator,
                destination=self.node_id,
                destination_seq=self._sequence_number,
                hop_count=0,
                next_hop=previous_hop,
                lifetime=self.config.my_route_timeout,
            )
            return

        cached = self.table.lookup(header.destination, self.sim.now)
        if cached is not None and cached.destination_seq >= header.destination_seq:
            # Intermediate reply from a sufficiently fresh cached route.
            self._send_rrep(
                originator=header.originator,
                destination=header.destination,
                destination_seq=cached.destination_seq,
                hop_count=cached.hop_count,
                next_hop=previous_hop,
                lifetime=max(0.0, cached.expiry_time - self.sim.now),
            )
            return

        # Rebroadcast with decremented TTL after a small jitter.
        ip = packet.require_ip()
        ttl = ip.ttl - 1
        if ttl <= 0:
            return
        forwarded = Packet(
            payload_size=0,
            ip=IpHeader(src=ip.src, dst=BROADCAST, protocol=IpProtocol.AODV, ttl=ttl),
            aodv=AodvHeader(
                message_type=AodvMessageType.RREQ,
                originator=header.originator,
                destination=header.destination,
                originator_seq=header.originator_seq,
                destination_seq=header.destination_seq,
                hop_count=header.hop_count + 1,
                rreq_id=header.rreq_id,
            ),
        )
        self.stats.control_packets_sent += 1
        jitter = self.rng.uniform(0.0, self.config.rreq_jitter)
        self.sim.schedule(jitter, self._broadcast_to_mac, forwarded)

    def _send_rrep(
        self,
        originator: int,
        destination: int,
        destination_seq: int,
        hop_count: int,
        next_hop: int,
        lifetime: float,
    ) -> None:
        header = AodvHeader(
            message_type=AodvMessageType.RREP,
            originator=originator,
            destination=destination,
            destination_seq=destination_seq,
            hop_count=hop_count,
        )
        packet = Packet(
            payload_size=0,
            ip=IpHeader(src=self.node_id, dst=originator, protocol=IpProtocol.AODV),
            aodv=header,
        )
        self.stats.control_packets_sent += 1
        self.tracer.record(self.sim.now, "aodv", "rrep_send", node=self.node_id,
                           originator=originator, destination=destination)
        self._enqueue_to_mac(packet, next_hop)

    def _handle_rrep(self, packet: Packet, previous_hop: int) -> None:
        header = packet.require_aodv()
        # Forward route to the replied destination through the previous hop.
        self._update_route(
            destination=header.destination,
            next_hop=previous_hop,
            hop_count=header.hop_count + 1,
            destination_seq=header.destination_seq,
            lifetime=self.config.active_route_timeout,
        )
        if header.originator == self.node_id:
            self._complete_discovery(header.destination)
            return
        # Forward the RREP along the reverse route towards the originator.
        reverse = self.table.lookup(header.originator, self.sim.now)
        if reverse is None:
            return
        forwarded = Packet(
            payload_size=0,
            ip=IpHeader(src=packet.require_ip().src, dst=header.originator,
                        protocol=IpProtocol.AODV),
            aodv=AodvHeader(
                message_type=AodvMessageType.RREP,
                originator=header.originator,
                destination=header.destination,
                destination_seq=header.destination_seq,
                hop_count=header.hop_count + 1,
            ),
        )
        self.stats.control_packets_sent += 1
        self._enqueue_to_mac(forwarded, reverse.next_hop)

    def _originate_rerr(self, unreachable) -> None:
        header = AodvHeader(message_type=AodvMessageType.RERR, unreachable=list(unreachable))
        packet = Packet(
            payload_size=0,
            ip=IpHeader(src=self.node_id, dst=BROADCAST, protocol=IpProtocol.AODV, ttl=1),
            aodv=header,
        )
        self.stats.control_packets_sent += 1
        self.stats.rerrs_sent += 1
        self.tracer.record(self.sim.now, "aodv", "rerr_send", node=self.node_id,
                           unreachable=list(unreachable))
        self._broadcast_to_mac(packet)

    def _handle_rerr(self, packet: Packet, previous_hop: int) -> None:
        header = packet.require_aodv()
        invalidated = []
        for destination, seq in header.unreachable:
            entry = self.table.get(destination)
            if entry is not None and entry.valid and entry.next_hop == previous_hop:
                entry.valid = False
                entry.destination_seq = max(entry.destination_seq, seq)
                invalidated.append((destination, entry.destination_seq))
        if invalidated:
            # Propagate the error to our own upstream neighbours.
            self._originate_rerr(invalidated)

    # ==================================================================
    # Routing-table helpers
    # ==================================================================
    def _update_route(
        self,
        destination: int,
        next_hop: int,
        hop_count: int,
        destination_seq: int,
        lifetime: float,
    ) -> None:
        if destination == self.node_id or next_hop < 0:
            return
        now = self.sim.now
        existing = self.table.get(destination)
        expiry = now + max(lifetime, 0.0)
        if existing is None or not existing.is_usable(now):
            self.table.upsert(RouteEntry(
                destination=destination,
                next_hop=next_hop,
                hop_count=hop_count,
                destination_seq=destination_seq,
                expiry_time=expiry,
            ))
            return
        # Prefer fresher sequence numbers, then shorter routes.
        if destination_seq > existing.destination_seq or (
            destination_seq == existing.destination_seq and hop_count < existing.hop_count
        ):
            self.table.upsert(RouteEntry(
                destination=destination,
                next_hop=next_hop,
                hop_count=hop_count,
                destination_seq=destination_seq,
                expiry_time=expiry,
            ))
        else:
            existing.expiry_time = max(existing.expiry_time, expiry)

    def _refresh_route(self, route: RouteEntry) -> None:
        route.expiry_time = max(
            route.expiry_time, self.sim.now + self.config.active_route_timeout
        )

    def _learn_neighbor(self, neighbor: int) -> None:
        self._update_route(
            destination=neighbor,
            next_hop=neighbor,
            hop_count=1,
            destination_seq=self._seq_for(neighbor),
            lifetime=self.config.active_route_timeout,
        )

    def _seq_for(self, destination: int) -> int:
        entry = self.table.get(destination)
        return entry.destination_seq if entry is not None else 0

    def _remember_rreq(self, originator: int, rreq_id: int) -> None:
        key = (originator, rreq_id)
        if key in self._seen_rreq_set:
            return
        if len(self._seen_rreqs) == self._seen_rreqs.maxlen:
            oldest = self._seen_rreqs[0]
            self._seen_rreq_set.discard(oldest)
        self._seen_rreqs.append(key)
        self._seen_rreq_set.add(key)

    def _has_seen_rreq(self, key: Tuple[int, int]) -> bool:
        return key in self._seen_rreq_set

    # ==================================================================
    # Introspection
    # ==================================================================
    @property
    def sequence_number(self) -> int:
        """This node's current AODV sequence number."""
        return self._sequence_number

    def has_route(self, destination: int) -> bool:
        """True if a usable route to ``destination`` currently exists."""
        return self.table.lookup(destination, self.sim.now) is not None
