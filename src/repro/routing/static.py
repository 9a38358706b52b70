"""Static shortest-path routing.

A baseline routing protocol that is handed a precomputed next-hop table (e.g.
from :func:`repro.topology.base.shortest_path_next_hops`).  It performs no
route discovery and no repair; packets that fail at the MAC are simply dropped.
Used by unit/integration tests and as an ablation against AODV (it isolates the
false-route-failure effect the paper attributes to the routing layer).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.core.engine import Simulator
from repro.core.tracing import NULL_TRACER, Tracer
from repro.mac.queue import DropTailQueue
from repro.metrics import MetricsRegistry, NULL_METRICS
from repro.net.headers import BROADCAST
from repro.net.packet import Packet
from repro.routing.base import RoutingProtocol


class StaticRouting(RoutingProtocol):
    """Routing from a fixed next-hop table.

    Args:
        next_hops: Mapping from destination node id to next-hop node id.
            Destinations missing from the mapping are unreachable.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        queue: DropTailQueue,
        deliver_local: Callable[[Packet], None],
        next_hops: Mapping[int, int],
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        super().__init__(sim, node_id, queue, deliver_local, tracer, metrics)
        self._next_hops: Dict[int, int] = dict(next_hops)
        self._default_next_hop: Optional[int] = None

    def set_next_hop(self, destination: int, next_hop: int) -> None:
        """Add or change the next hop for ``destination``."""
        self._next_hops[destination] = next_hop

    def set_default_next_hop(self, next_hop: Optional[int]) -> None:
        """Fallback next hop for destinations missing from the table.

        The netmask-split addressing of heterogeneous scenarios uses this on
        subnet members: intra-subnet routes are explicit, everything else
        defaults towards the subnet's gateway (``None`` removes the default).
        """
        self._default_next_hop = next_hop

    def next_hop_for(self, destination: int) -> int:
        """Return the configured next hop or -1 when unreachable."""
        return self._next_hops.get(destination, -1)

    # ------------------------------------------------------------------
    # Downward path
    # ------------------------------------------------------------------
    def send_packet(self, packet: Packet) -> None:
        """Route a locally originated packet."""
        self.stats.packets_originated += 1
        self._route(packet)

    def forward_packet(self, packet: Packet) -> None:
        """Forward a transit packet."""
        self.stats.packets_forwarded += 1
        self._route(packet)

    def _route(self, packet: Packet) -> None:
        ip = packet.require_ip()
        if ip.dst == BROADCAST:
            self._broadcast_to_mac(packet)
            return
        next_hop = self._next_hops.get(ip.dst, self._default_next_hop)
        if next_hop is None:
            self.stats.packets_dropped_no_route += 1
            self.tracer.record(self.sim.now, "route", "no_route", node=self.node_id,
                               dst=ip.dst, uid=packet.uid)
            return
        self._enqueue_to_mac(packet, next_hop)

    # ------------------------------------------------------------------
    # Upward path
    # ------------------------------------------------------------------
    def on_mac_delivery(self, packet: Packet) -> None:
        """Deliver local packets, forward everything else."""
        self._deliver_or_forward(packet)

    def on_mac_send_failure(self, packet: Packet, next_hop: int) -> None:
        """Static routing has no repair: count the loss and drop the packet."""
        self.stats.link_failures += 1
        self.stats.packets_dropped_link_failure += 1
        self.tracer.record(self.sim.now, "route", "link_failure", node=self.node_id,
                           next_hop=next_hop, uid=packet.uid)
