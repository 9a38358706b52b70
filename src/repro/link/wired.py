"""Shared-bus Ethernet-style wired link layer.

A :class:`WiredBus` models one half-duplex broadcast segment in the classic
10BASE-style CSMA/CD shape, at frame granularity:

* Ports carrier-sense the bus before transmitting (1-persistent: a frame that
  arrives while the bus is busy waits for the bus to go idle).
* The propagation delay is the collision vulnerability window — a port only
  *hears* a transmission ``propagation_delay`` seconds after it starts, so
  two ports starting within that window collide and both frames are lost.
* Colliding senders back off for a uniform number of 512-bit slot times drawn
  from the binary-exponential window ``[0, 2^min(attempts, 10) - 1]`` and
  retry, giving up (and telling the routing layer) after 16 attempts.
* Successful frames are delivered to the addressed port (or every other port
  for broadcasts) one propagation delay after the transmission ends.

The bus reuses the 802.11 plumbing everywhere it can: frames carry the same
:class:`~repro.net.headers.MacHeader`, ports drain the same
:class:`~repro.mac.queue.DropTailQueue`, and the routing layer observes the
port through the same :class:`~repro.net.interfaces.MacListener` callbacks,
so :class:`~repro.routing.static.StaticRouting` and
:class:`~repro.routing.aodv.AodvRouting` run over a wired port unchanged.

Instrumentation lands under ``link.wired.*``: per-port counters
(``link.wired.node<N>.frames_sent`` …) in :class:`WiredStats` and per-bus
collision/utilization figures (``link.wired.bus<K>.collisions`` …) in
:class:`BusStats`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.engine import Simulator
from repro.core.errors import ConfigurationError
from repro.core.tracing import NULL_TRACER, Tracer
from repro.mac.queue import DropTailQueue
from repro.metrics import MetricsRegistry, NULL_METRICS, StatsRecord
from repro.net.headers import BROADCAST
from repro.net.interfaces import MacListener
from repro.net.packet import Packet


class WiredStats(StatsRecord):
    """Counters maintained by each wired port, published as
    ``link.wired.node<N>.<field>``."""

    __slots__ = {
        "frames_sent": "Frames transmitted without a collision.",
        "bytes_sent": "Payload bytes of successfully transmitted frames.",
        "frames_received": "Frames received and passed up to the listener.",
        "collisions": "Transmission attempts that ended in a collision.",
        "backoffs": "Binary-exponential backoff rounds entered.",
        "frames_dropped_excess_collisions":
            "Frames dropped after exhausting the 16-attempt limit.",
        "broadcasts_sent": "Broadcast frames put on the bus.",
    }


class BusStats(StatsRecord):
    """Bus-level figures, published as ``link.wired.bus<K>.<field>``."""

    __slots__ = {
        "collisions": "Collision events on the bus.",
        "frames_delivered": "Frames successfully carried by the bus.",
        "utilization": "Fraction of simulated time the bus carried a "
                       "successful transmission (set at harvest time).",
    }

    def __init__(self, registry: MetricsRegistry = NULL_METRICS,
                 prefix: str = "") -> None:
        super().__init__(registry, prefix)
        self.utilization = 0.0


class _Transmission:
    """One frame in flight on the bus."""

    __slots__ = ("sender", "packet", "start", "end", "corrupted")

    def __init__(self, sender: "WiredPort", packet: Packet,
                 start: float, end: float) -> None:
        self.sender = sender
        self.packet = packet
        self.start = start
        self.end = end
        self.corrupted = False


class WiredBus:
    """One shared half-duplex wired segment.

    Args:
        sim: The simulation engine.
        rate_mbps: Transmission rate in Mb/s.
        propagation_delay: One-way propagation delay in seconds.
        bus_id: Index used in metric names (``link.wired.bus<K>.*``).
        tracer: Scenario tracer for collision/drop events.
        metrics: Metrics registry for the bus-level stats.
    """

    def __init__(self, sim: Simulator, rate_mbps: float = 10.0,
                 propagation_delay: float = 5e-6, bus_id: int = 0,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS) -> None:
        if rate_mbps <= 0:
            raise ConfigurationError("wired bus rate must be positive")
        if propagation_delay < 0:
            raise ConfigurationError(
                "wired bus propagation delay must be non-negative")
        self.sim = sim
        self.rate_mbps = rate_mbps
        self.propagation_delay = propagation_delay
        self.bus_id = bus_id
        self.tracer = tracer
        self._ports: Dict[int, "WiredPort"] = {}
        self._active: List[_Transmission] = []
        self._blocked: Set[FrozenSet[int]] = set()
        self._busy_seconds = 0.0
        self.stats = BusStats(metrics, prefix=f"link.wired.bus{bus_id}")

    # ==================================================================
    # Attachment and introspection
    # ==================================================================
    def register(self, port: "WiredPort") -> None:
        """Attach a port; each node id may appear once per bus."""
        if port.node_id in self._ports:
            raise ConfigurationError(
                f"node {port.node_id} already has a port on bus {self.bus_id}")
        self._ports[port.node_id] = port

    @property
    def node_ids(self) -> List[int]:
        """Attached node ids in registration order."""
        return list(self._ports)

    def frame_duration(self, packet: Packet) -> float:
        """Serialization time of a frame at the bus rate."""
        return packet.size * 8 / (self.rate_mbps * 1_000_000.0)

    # ==================================================================
    # Scripted outages
    # ==================================================================
    def set_link_blocked(self, node_a: int, node_b: int, blocked: bool) -> None:
        """Block or unblock delivery between two attached nodes.

        Mirrors :meth:`repro.phy.channel.WirelessChannel.set_link_blocked`
        so scenario timelines address wired and wireless links uniformly.
        """
        for node_id in (node_a, node_b):
            if node_id not in self._ports:
                raise ConfigurationError(f"unknown node {node_id}")
        pair = frozenset((node_a, node_b))
        if blocked:
            self._blocked.add(pair)
        else:
            self._blocked.discard(pair)

    def is_link_blocked(self, node_a: int, node_b: int) -> bool:
        """True when delivery between the two nodes is blocked."""
        return frozenset((node_a, node_b)) in self._blocked

    # ==================================================================
    # Medium access
    # ==================================================================
    def carrier_sensed(self, port: "WiredPort") -> bool:
        """True when another port's transmission is audible at ``port``.

        A transmission is audible from ``start + propagation_delay`` until
        ``end + propagation_delay``; inside the vulnerability window the
        carrier is *not* sensed yet, which is exactly how collisions happen.
        """
        now = self.sim.now
        for transmission in self._active:
            if transmission.sender is port:
                continue
            if transmission.start + self.propagation_delay <= now:
                return True
        return False

    def transmit(self, port: "WiredPort", packet: Packet) -> None:
        """Put a frame on the wire on behalf of ``port``.

        The caller has already carrier-sensed; any transmission still in
        progress at this point is therefore inside the vulnerability window
        and both frames are corrupted.
        """
        now = self.sim.now
        transmission = _Transmission(port, packet, now,
                                     now + self.frame_duration(packet))
        colliding = [t for t in self._active if t.end > now]
        if colliding:
            transmission.corrupted = True
            for other in colliding:
                other.corrupted = True
            self.stats.collisions += 1
            self.tracer.record(now, "link", "collision", node=port.node_id,
                               bus=self.bus_id, uid=packet.uid)
        self._active.append(transmission)
        self.sim.schedule(transmission.end - now, self._finish, transmission)

    def _finish(self, transmission: _Transmission) -> None:
        success = not transmission.corrupted
        if success:
            self._busy_seconds += transmission.end - transmission.start
        transmission.sender.on_transmit_end(success)
        # The frame (or its corrupted remains) stays audible for one more
        # propagation delay; waiting ports are released only after that.
        self.sim.schedule(self.propagation_delay, self._retire,
                          transmission, success)

    def _retire(self, transmission: _Transmission, deliver: bool) -> None:
        self._active.remove(transmission)
        if deliver:
            self._deliver(transmission)
        if not self._active:
            # Registration order keeps the release sequence deterministic.
            for port in list(self._ports.values()):
                port.on_bus_idle()

    def _deliver(self, transmission: _Transmission) -> None:
        packet = transmission.packet
        mac = packet.require_mac()
        sender_id = transmission.sender.node_id
        delivered = False
        for node_id, port in self._ports.items():
            if port is transmission.sender:
                continue
            if frozenset((sender_id, node_id)) in self._blocked:
                continue
            if mac.dst == node_id or mac.dst == BROADCAST:
                # As on the air: one frame for all, read-only to receivers.
                port.on_frame_received(packet)
                delivered = True
        if delivered:
            self.stats.frames_delivered += 1

    # ==================================================================
    # Harvest helpers
    # ==================================================================
    def finalize_utilization(self, now: float) -> float:
        """Set and return the bus utilization at harvest time."""
        utilization = self._busy_seconds / now if now > 0 else 0.0
        self.stats.utilization = utilization
        return utilization


class WiredPort:
    """One node's attachment to a :class:`WiredBus`.

    Drains a :class:`~repro.mac.queue.DropTailQueue` of MAC-framed packets
    onto the bus with CSMA/CD medium access and reports outcomes to a
    :class:`~repro.net.interfaces.MacListener`, mirroring the 802.11 MAC's
    contract so routing protocols run over either link layer unchanged.

    Args:
        sim: The simulation engine.
        node_id: Owning node's id (also the port's MAC-level address).
        bus: The bus this port attaches to.
        queue: Outbound frame queue (the port takes over ``on_enqueue``).
        rng: Random stream for backoff slot draws (``wired.<node>``).
        tracer: Scenario tracer.
        metrics: Metrics registry for the per-port counters.
    """

    #: Attempts before a frame is dropped (16, as in classic Ethernet).
    MAX_ATTEMPTS = 16
    #: Backoff window stops growing after this many collisions.
    BACKOFF_LIMIT = 10
    #: Slot time and interframe gap in bit times at the bus rate.
    SLOT_BITS = 512
    IFG_BITS = 96

    def __init__(self, sim: Simulator, node_id: int, bus: WiredBus,
                 queue: DropTailQueue, rng,
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS) -> None:
        self.sim = sim
        self.node_id = node_id
        self.bus = bus
        self.queue = queue
        self.rng = rng
        self.tracer = tracer
        self.stats = WiredStats(metrics, prefix=f"link.wired.node{node_id}")
        self.listener: Optional[MacListener] = None
        self._current: Optional[Packet] = None
        self._attempts = 0
        self._transmitting = False
        self._deferring = False
        self._in_backoff = False
        bit_time = 1.0 / (bus.rate_mbps * 1_000_000.0)
        self._slot_time = self.SLOT_BITS * bit_time
        self._ifg = self.IFG_BITS * bit_time
        queue.on_enqueue = self._on_queue_activity
        bus.register(self)

    @property
    def has_work(self) -> bool:
        """True if the port is busy or has queued frames."""
        return self._current is not None or not self.queue.is_empty

    # ==================================================================
    # Transmit path
    # ==================================================================
    def _on_queue_activity(self) -> None:
        if self._current is None:
            self._dequeue_next()

    def _dequeue_next(self) -> None:
        if self._current is not None:
            return
        packet = self.queue.dequeue()
        if packet is None:
            return
        self._current = packet
        self._attempts = 0
        self._try_send()

    def _try_send(self) -> None:
        if self.bus.carrier_sensed(self):
            self._deferring = True
            return
        self._deferring = False
        self._transmitting = True
        self.bus.transmit(self, self._current)

    def on_bus_idle(self) -> None:
        """Bus went idle; release a deferring frame (called by the bus)."""
        if (self._deferring and self._current is not None
                and not self._transmitting and not self._in_backoff):
            self._try_send()

    def on_transmit_end(self, success: bool) -> None:
        """Own transmission finished (called by the bus)."""
        self._transmitting = False
        if success:
            self._finish_current(success=True)
        else:
            self.stats.collisions += 1
            self._attempts += 1
            if self._attempts >= self.MAX_ATTEMPTS:
                self.stats.frames_dropped_excess_collisions += 1
                self.tracer.record(self.sim.now, "link", "excess_collisions",
                                   node=self.node_id,
                                   uid=self._current.uid)
                self._finish_current(success=False)
            else:
                self.stats.backoffs += 1
                slots = self.rng.randint(
                    0, 2 ** min(self._attempts, self.BACKOFF_LIMIT) - 1)
                self._in_backoff = True
                self.sim.schedule(self._ifg + slots * self._slot_time,
                                  self._backoff_done)

    def _backoff_done(self) -> None:
        self._in_backoff = False
        self._try_send()

    def _finish_current(self, success: bool) -> None:
        packet = self._current
        next_hop = packet.require_mac().dst
        self._current = None
        self._attempts = 0
        if success:
            if next_hop == BROADCAST:
                self.stats.broadcasts_sent += 1
            self.stats.frames_sent += 1
            self.stats.bytes_sent += packet.size
        if self.listener is not None:
            delivered = packet.copy()
            delivered.mac = None
            if success:
                self.listener.on_mac_send_success(delivered, next_hop)
            else:
                self.listener.on_mac_send_failure(delivered, next_hop)
        self.sim.schedule(self._ifg, self._dequeue_next)

    # ==================================================================
    # Receive path
    # ==================================================================
    def on_frame_received(self, packet: Packet) -> None:
        """Frame addressed to this port arrived (called by the bus)."""
        self.stats.frames_received += 1
        if self.listener is not None:
            self.listener.on_mac_delivery(packet)
