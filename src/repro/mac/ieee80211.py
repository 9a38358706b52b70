"""IEEE 802.11 DCF MAC layer.

Implements the distributed coordination function as used by the paper's ns-2
setup:

* physical + virtual (NAV) carrier sensing,
* DIFS wait and binary-exponential backoff,
* RTS/CTS handshake before every unicast data frame,
* SIFS-separated DATA/ACK exchange,
* retry limits of 7 for RTS and 4 for DATA frames; exceeding either limit
  drops the packet and reports a link failure to the layer above (which is how
  AODV's *false route failures* arise on a perfectly static topology),
* broadcast frames (AODV control) sent without RTS/CTS or acknowledgement.

Control frames and the PLCP preamble are transmitted at the 1 Mbit/s basic
rate; the DATA body at the configured 2 / 5.5 / 11 Mbit/s data rate (see
:mod:`repro.mac.timing`).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

from repro.core.engine import Simulator, Timer
from repro.core.tracing import NULL_TRACER, Tracer
from repro.mac.frames import attach_data_header, make_ack, make_cts, make_rts
from repro.mac.queue import DropTailQueue
from repro.mac.stats import MacStats
from repro.mac.timing import MacTiming
from repro.metrics import MetricsRegistry, NULL_METRICS
from repro.net.headers import BROADCAST, MacFrameType, MacHeader
from repro.net.interfaces import MacListener, PhyListener
from repro.net.packet import Packet
from repro.phy.radio import Radio


class MacState(enum.Enum):
    """High-level state of the DCF transmit path."""

    IDLE = "IDLE"
    CONTEND = "CONTEND"
    WAIT_CTS = "WAIT_CTS"
    WAIT_ACK = "WAIT_ACK"


class _AccessPhase(enum.Enum):
    """Sub-state of the channel-access (DIFS + backoff) procedure."""

    INACTIVE = "INACTIVE"
    WAIT_IDLE = "WAIT_IDLE"
    DIFS = "DIFS"
    BACKOFF = "BACKOFF"


# The states, phases and frame types as module names: the MAC compares them
# on every frame and timer, and on CPython 3.11 reading an enum member
# through its class costs several times as much as reading a global.
_IDLE = MacState.IDLE
_CONTEND = MacState.CONTEND
_WAIT_CTS = MacState.WAIT_CTS
_WAIT_ACK = MacState.WAIT_ACK
_INACTIVE = _AccessPhase.INACTIVE
_WAIT_IDLE = _AccessPhase.WAIT_IDLE
_DIFS = _AccessPhase.DIFS
_BACKOFF = _AccessPhase.BACKOFF
_RTS = MacFrameType.RTS
_CTS = MacFrameType.CTS
_DATA = MacFrameType.DATA
_ACK = MacFrameType.ACK


class Ieee80211Mac(PhyListener):
    """One node's 802.11 DCF MAC instance.

    Args:
        sim: Simulation engine.
        node_id: Identifier of the owning node.
        radio: The node's radio (the MAC registers itself as its listener).
        queue: Interface queue feeding this MAC.
        timing: MAC/PHY timing parameters (bandwidth-dependent).
        rng: Random stream for backoff slot selection.
        tracer: Optional tracer.
        metrics: Optional metrics registry; the MAC's counters register under
            ``mac.node<N>.*``.
    """

    #: Number of recently received frame uids remembered per neighbour for
    #: duplicate suppression (covers retransmissions after a lost MAC ACK).
    DEDUPE_CACHE_SIZE = 32

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        radio: Radio,
        queue: DropTailQueue,
        timing: MacTiming,
        rng,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.radio = radio
        self.radio.listener = self
        self.queue = queue
        self.queue.on_enqueue = self._on_queue_activity
        self.timing = timing
        self.rng = rng
        self.tracer = tracer
        self.listener: Optional[MacListener] = None
        self.stats = MacStats(metrics, prefix=f"mac.node{node_id}")

        self.state = _IDLE
        self._access_phase = _INACTIVE
        self.radio.notify_carrier = False
        self._current: Optional[Packet] = None
        self._current_next_hop: int = BROADCAST
        self._short_retries = 0
        self._long_retries = 0
        self._backoff_slots_remaining: Optional[int] = None
        self._backoff_started_at = 0.0
        self._difs_event = None
        self._backoff_event = None
        self._nav_wakeup_event = None
        self._nav_until = 0.0
        self._response_timer = Timer(sim, self._on_response_timeout)
        self._rx_cache: Dict[int, Deque[int]] = {}

    # ==================================================================
    # Upper-layer API
    # ==================================================================
    def _on_queue_activity(self) -> None:
        """Called by the interface queue whenever a packet is enqueued."""
        if self._current is None and self.state is _IDLE:
            self._dequeue_next()

    def _dequeue_next(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            return
        self._current = packet
        self._current_next_hop = packet.require_mac().dst
        self._short_retries = 0
        self._long_retries = 0
        self._backoff_slots_remaining = None
        self.state = _CONTEND
        self._begin_access()

    # ==================================================================
    # Channel access: DIFS + backoff with physical & virtual carrier sense
    # ==================================================================
    def _enter(self, phase: _AccessPhase) -> None:
        """Change access phase.  Carrier transitions matter in every phase but
        ``INACTIVE`` and to nothing else here, so the radio reports them then
        (its flag is written only when that changes)."""
        if (phase is _INACTIVE) is not (self._access_phase is _INACTIVE):
            self.radio.notify_carrier = phase is not _INACTIVE
        self._access_phase = phase

    def _begin_access(self) -> None:
        self._enter(_WAIT_IDLE)
        self._try_access()

    def _try_access(self) -> None:
        if self._access_phase is not _WAIT_IDLE:
            return
        now = self.sim.now
        if self.radio.carrier_busy:
            return  # resumed by on_carrier_idle
        if now < self._nav_until:
            self._schedule_nav_wakeup()
            return
        self._enter(_DIFS)
        self._difs_event = self.sim.schedule(self.timing.difs, self._difs_complete)

    def _schedule_nav_wakeup(self) -> None:
        if self._nav_wakeup_event is not None:
            return
        delay = max(0.0, self._nav_until - self.sim.now)
        self._nav_wakeup_event = self.sim.schedule(delay, self._nav_expired)

    def _nav_expired(self) -> None:
        self._nav_wakeup_event = None
        self._try_access()

    def _difs_complete(self) -> None:
        self._difs_event = None
        if self._backoff_slots_remaining is None:
            window = self.timing.contention_window(self._attempt_index())
            self._backoff_slots_remaining = self.rng.randint(0, window)
        self._enter(_BACKOFF)
        self._backoff_started_at = self.sim.now
        delay = self._backoff_slots_remaining * self.timing.slot_time
        self._backoff_event = self.sim.schedule(delay, self._backoff_complete)

    def _backoff_complete(self) -> None:
        self._backoff_event = None
        self._backoff_slots_remaining = None
        self._enter(_INACTIVE)
        self._transmit_current()

    def _pause_access(self) -> None:
        if self._access_phase is _DIFS:
            self.sim.cancel(self._difs_event)
            self._difs_event = None
            self._enter(_WAIT_IDLE)
        elif self._access_phase is _BACKOFF:
            self.sim.cancel(self._backoff_event)
            self._backoff_event = None
            elapsed = self.sim.now - self._backoff_started_at
            slots_elapsed = int(elapsed / self.timing.slot_time)
            remaining = (self._backoff_slots_remaining or 0) - slots_elapsed
            self._backoff_slots_remaining = max(0, remaining)
            self._enter(_WAIT_IDLE)

    def _attempt_index(self) -> int:
        return self._short_retries + self._long_retries

    # ==================================================================
    # PhyListener callbacks
    # ==================================================================
    def on_carrier_busy(self) -> None:
        """Pause DIFS/backoff when the medium becomes busy."""
        self._pause_access()

    def on_carrier_idle(self) -> None:
        """Resume channel access when the medium becomes idle."""
        if self._access_phase is _WAIT_IDLE:
            self._try_access()

    def on_frame_received(self, packet: Packet) -> None:
        """Dispatch a successfully decoded frame."""
        mac = packet.require_mac()
        if mac.dst != self.node_id and mac.dst != BROADCAST:
            # Overheard frame: update the NAV with its duration field.
            duration = mac.duration
            if duration > 0:
                self._nav_until = max(self._nav_until, self.sim.now + duration)
            return
        frame_type = mac.frame_type
        if frame_type is _RTS:
            self._handle_rts(mac)
        elif frame_type is _CTS:
            self._handle_cts()
        elif frame_type is _DATA:
            self._handle_data(packet, mac)
        elif frame_type is _ACK:
            self._handle_ack()

    # ==================================================================
    # Receiver side
    # ==================================================================
    def _handle_rts(self, mac: MacHeader) -> None:
        if self.state in (_WAIT_CTS, _WAIT_ACK):
            return  # busy with our own exchange
        if self.sim.now < self._nav_until:
            return  # virtual carrier says the medium is reserved
        nav = max(0.0, mac.duration - self.timing.cts_duration - self.timing.sifs)
        cts = make_cts(self.node_id, mac.src, nav)
        self.stats.cts_tx += 1
        self.sim.schedule(
            self.timing.sifs, self.radio.transmit, cts, self.timing.cts_duration
        )

    def _handle_cts(self) -> None:
        if self.state is not _WAIT_CTS or self._current is None:
            return
        self._response_timer.cancel()
        self.sim.schedule(self.timing.sifs, self._send_data_frame)

    def _handle_data(self, packet: Packet, mac: MacHeader) -> None:
        if mac.dst == BROADCAST:
            self._deliver_up(packet)
            return
        # Unicast: acknowledge after SIFS regardless of our own state.
        ack = make_ack(self.node_id, mac.src)
        self.stats.ack_tx += 1
        self.sim.schedule(
            self.timing.sifs, self.radio.transmit, ack, self.timing.ack_duration
        )
        if self._is_duplicate(mac.src, packet.uid):
            self.stats.duplicates_suppressed += 1
            return
        self._deliver_up(packet)

    def _handle_ack(self) -> None:
        if self.state is not _WAIT_ACK or self._current is None:
            return
        self._response_timer.cancel()
        self.stats.data_tx_success += 1
        self._finish_current(success=True)

    def _is_duplicate(self, src: int, uid: int) -> bool:
        cache = self._rx_cache.get(src)
        if cache is None:
            cache = self._rx_cache[src] = deque(maxlen=self.DEDUPE_CACHE_SIZE)
        if uid in cache:
            return True
        cache.append(uid)
        return False

    def _deliver_up(self, packet: Packet) -> None:
        # Handed up as received — the frame's receivers share it, routing
        # copies it if it forwards it — with the MAC header attached so routing
        # can learn the previous hop (needed by AODV for reverse routes).
        self.stats.frames_delivered_up += 1
        if self.listener is not None:
            self.listener.on_mac_delivery(packet)

    # ==================================================================
    # Transmit side
    # ==================================================================
    def _transmit_current(self) -> None:
        if self._current is None:
            return
        mac = self._current.require_mac()
        if mac.dst == BROADCAST:
            self._transmit_broadcast()
            return
        self._transmit_rts()

    def _transmit_broadcast(self) -> None:
        assert self._current is not None
        frame_size = self._current.network_size + MacHeader.SIZE_DATA
        duration = self.timing.data_duration(frame_size)
        self._current.require_mac().duration = 0.0
        self.stats.broadcasts_sent += 1
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "mac", "broadcast", node=self.node_id,
                               uid=self._current.uid)
        # Done once the frame is out: the frame's own transmission says so,
        # right after the radio's end of it.  The air carries a copy: we let
        # go of our packet (and strip its MAC header) then.
        self.radio.transmit(self._current.copy(), duration, self._broadcast_complete)

    def _broadcast_complete(self) -> None:
        self._finish_current(success=True)

    def _transmit_rts(self) -> None:
        assert self._current is not None
        frame_size = self._current.network_size + MacHeader.SIZE_DATA
        nav = self.timing.nav_for_rts(frame_size)
        rts = make_rts(self.node_id, self._current_next_hop, nav)
        self.state = _WAIT_CTS
        self.stats.rts_tx += 1
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "mac", "rts", node=self.node_id,
                               dst=self._current_next_hop, uid=self._current.uid,
                               attempt=self._attempt_index())
        self.radio.transmit(rts, self.timing.rts_duration)
        self._response_timer.start(self.timing.rts_duration + self.timing.cts_timeout)

    def _send_data_frame(self) -> None:
        if self._current is None:
            return
        frame_size = self._current.network_size + MacHeader.SIZE_DATA
        duration = self.timing.data_duration(frame_size)
        attach_data_header(
            self._current,
            src=self.node_id,
            dst=self._current_next_hop,
            nav=self.timing.data_nav,
            retry=self._long_retries > 0,
        )
        self.state = _WAIT_ACK
        self.stats.data_tx_attempts += 1
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "mac", "data", node=self.node_id,
                               dst=self._current_next_hop, uid=self._current.uid)
        # The air carries a copy: a retry attaches a new header to ours.
        self.radio.transmit(self._current.copy(), duration)
        self._response_timer.start(duration + self.timing.ack_timeout)

    # ==================================================================
    # Timeouts and completion
    # ==================================================================
    def _on_response_timeout(self) -> None:
        if self._current is None:
            return
        if self.state is _WAIT_CTS:
            self.stats.rts_timeouts += 1
            self._short_retries += 1
            if self.tracer.enabled:
                self.tracer.record(self.sim.now, "mac", "cts_timeout", node=self.node_id,
                                   uid=self._current.uid, retries=self._short_retries)
            if self._short_retries >= self.timing.short_retry_limit:
                self._drop_current()
                return
        elif self.state is _WAIT_ACK:
            self.stats.ack_timeouts += 1
            self._long_retries += 1
            if self.tracer.enabled:
                self.tracer.record(self.sim.now, "mac", "ack_timeout", node=self.node_id,
                                   uid=self._current.uid, retries=self._long_retries)
            if self._long_retries >= self.timing.long_retry_limit:
                self._drop_current()
                return
        else:
            return
        # Retry: contend again with a doubled contention window.
        self.state = _CONTEND
        self._backoff_slots_remaining = None
        self._begin_access()

    def _drop_current(self) -> None:
        self.stats.data_dropped_retry += 1
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "mac", "retry_drop", node=self.node_id,
                               uid=self._current.uid if self._current else None)
        self._finish_current(success=False)

    def _finish_current(self, success: bool) -> None:
        packet = self._current
        next_hop = self._current_next_hop
        self._response_timer.cancel()
        self._current = None
        self._short_retries = 0
        self._long_retries = 0
        self._backoff_slots_remaining = None
        self.state = _IDLE
        self._enter(_INACTIVE)
        if packet is not None and self.listener is not None:
            # Nobody else holds this packet: the MAC has let go of it and the
            # air carried copies.
            packet.mac = None
            if success:
                self.listener.on_mac_send_success(packet, next_hop)
            else:
                self.listener.on_mac_send_failure(packet, next_hop)
        self._dequeue_next()

    # ==================================================================
    # Introspection helpers
    # ==================================================================
    @property
    def has_work(self) -> bool:
        """True if the MAC is busy or has queued packets."""
        return self._current is not None or not self.queue.is_empty

    @property
    def nav_remaining(self) -> float:
        """Seconds of virtual carrier-sense reservation remaining."""
        return max(0.0, self._nav_until - self.sim.now)
