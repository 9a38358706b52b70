"""Per-node radio (PHY state machine).

The radio mirrors the behaviour of ns-2's ``WirelessPhy``/``Mac802_11``
reception logic, which is what the paper's results were produced with:

* the radio locks onto the **first** signal that arrives while it is idle
  (even one too weak to decode — a signal from inside the carrier-sense range
  but outside the transmission range);
* while locked, a later signal is *captured away* (ignored) if the locked
  signal is at least ``capture_threshold`` times stronger (ns-2's
  ``CPThresh_`` = 10, two-ray-ground powers ∝ d^-4); otherwise the overlap is
  a **collision** and the locked frame is corrupted.  The later frame is never
  received in either case;
* a half-duplex radio cannot receive while transmitting, and starting a
  transmission corrupts any reception in progress;
* the frame is delivered to the MAC only if the lock survives to the end of
  the frame, the transmitter was within transmission range, and the radio did
  not transmit in the meantime.

This is exactly the mechanism behind the paper's hidden-terminal losses: a
weak frame from a hidden node that arrives *first* destroys the stronger frame
that follows, while the reverse order is saved by capture.

The radio does not schedule its own signal edges.  The channel's transmission
object calls :meth:`Radio.signal_start` for each receiver at the
``(time, sequence)`` key the start's own event would have had (see
:class:`repro.phy.channel._Transmission`), and the start reserves the key of
the signal's end.  The frame it passes is the packet the sender transmitted,
shared by every receiver: read it, never change it.  The sender's own end of
the frame heads that transmission's end chain: it is the one event
:meth:`Radio.transmit` queues.

Most signals a radio hears it cannot decode, and most arrive while its MAC
has no use for the carrier.  The end of such a *quiet* signal — not
receivable, :attr:`Radio.notify_carrier` off when it started — is *owed*: no
edge runs it.  The radio keeps it and settles it, under its reserved key, the
first time it is touched by something keyed later: a signal start, an end
that does run, :meth:`Radio.transmit`, or :meth:`Radio.settle` (which every
reader of :class:`RadioStats` calls first).  Settling releases the lock and
counts the airtime, exactly as the end would have.  The owed ends are kept
in key order as they arrive — a new one has the newest sequence, so it goes
after every owed end that does not end later than it — and a touch compares
its key with the first owed end's before it settles anything, so the common
touch, with nothing due, costs that one comparison.  If the listener turns
the carrier flag back on while ends are owed, the one owed end that could
still report the carrier idle is queued as an edge again.  The other ends — a
decodable signal, or any signal while the flag is on — run from the
transmission's end chain at their keys.

The radio also provides carrier sensing to the MAC: the medium is busy while
any signal from within the carrier-sense (interference) range is on the air or
the radio itself is transmitting.  ``carrier_busy`` always answers; the
busy/idle callbacks are made only while the listener keeps
:attr:`Radio.notify_carrier` set — most signal edges find a MAC with nothing
to send, which has no use for them.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.core.engine import Simulator
from repro.core.tracing import NULL_TRACER, Tracer
from repro.metrics import MetricsRegistry, NULL_METRICS, StatsRecord
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.net.interfaces import PhyListener
    from repro.phy.channel import WirelessChannel


@dataclass(slots=True, eq=False)
class _Signal:
    """One signal currently arriving at this radio.

    :meth:`Radio.signal_start` builds one per receiver of every frame, so it
    fills the slots of ``object.__new__(_Signal)`` itself instead of calling
    the generated ``__init__``.
    """

    packet: Packet
    receivable: bool
    power: float
    end_time: float
    duration: float
    #: Sequence half of the end edge's key, reserved in ``signal_start``.
    end_sequence: int = 0
    corrupted: bool = False


_end_key = attrgetter("end_time", "end_sequence")
_new = object.__new__


class RadioStats(StatsRecord):
    """Counters the radio maintains for diagnostics and energy accounting,
    published as ``phy.node<N>.<field>``.  The two cumulative airtimes feed
    the energy model and start at ``0.0``.

    ``time_receiving`` and ``frames_below_threshold`` lag behind the clock
    by the radio's owed signal ends: a reader in mid-run calls
    :meth:`Radio.settle` first (the scenario's result collection and energy
    probes do)."""

    __slots__ = {
        "frames_sent": "Frames transmitted.",
        "bytes_sent": "Bytes transmitted.",
        "frames_received": "Frames decoded and handed to the MAC.",
        "frames_corrupted": "Receptions lost to collisions or own transmissions.",
        "frames_captured": "Later overlapping frames ignored by capture.",
        "frames_below_threshold": "Locked frames from outside transmission range.",
        "time_transmitting": "Cumulative transmit airtime in seconds.",
        "time_receiving": "Cumulative receive/overhear airtime in seconds.",
    }

    def __init__(self, registry: MetricsRegistry = NULL_METRICS,
                 prefix: str = "") -> None:
        super().__init__(registry, prefix)
        self.time_transmitting = self.time_receiving = 0.0


class Radio:
    """Half-duplex radio attached to one node.

    Args:
        sim: The simulation engine.
        node_id: Identifier of the owning node.
        channel: The shared wireless channel.
        capture_threshold: Power ratio for the capture decision (ns-2 default 10).
        tracer: Optional tracer for debugging.
        metrics: Optional metrics registry; the radio's stats register
            under ``phy.node<N>``.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        channel: "WirelessChannel",
        capture_threshold: float = 10.0,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.channel = channel
        self.capture_threshold = capture_threshold
        self.tracer = tracer
        self.listener: Optional["PhyListener"] = None
        self.stats = RadioStats(metrics, prefix=f"phy.node{node_id}")
        self._locked: Optional[_Signal] = None
        self._transmitting_until: float = 0.0
        # Latest end time of any signal that has started arriving; signals
        # end exactly at their end time, so the carrier is busy until then.
        self._signals_until: float = 0.0
        self._carrier_was_busy = False
        self._notify = True
        #: Quiet signals whose ends are owed (see the module docstring).
        self._owed: List[_Signal] = []

    @property
    def notify_carrier(self) -> bool:
        """Written by the listener: False while it has no use for
        ``on_carrier_busy`` / ``on_carrier_idle``."""
        return self._notify

    @notify_carrier.setter
    def notify_carrier(self, on: bool) -> None:
        if on and not self._notify and self._owed:
            self._watch_owed_ends()
        self._notify = on

    def _watch_owed_ends(self) -> None:
        """The flag is turning on: settle what is due, and queue again the
        owed end that will find the carrier idle, should one."""
        sim = self.sim
        self._settle(sim.now, sim.now_sequence)
        # Only an end at the latest end time, once our own frame is out, can
        # find the carrier idle; of those, the first to run (the owed ends
        # are in key order).
        last = self._signals_until
        if last < self._transmitting_until:
            return
        owed = self._owed
        for signal in owed:
            if signal.end_time == last:
                owed.remove(signal)
                sim.schedule_reserved(signal.end_time, signal.end_sequence,
                                      self._signal_end, signal)
                return

    def settle(self) -> None:
        """Settle every owed end keyed before the running handler's
        ``(now, now_sequence)``; call before reading :attr:`stats` in mid-run."""
        if self._owed:
            self._settle(self.sim.now, self.sim.now_sequence)

    def _settle(self, time: float, sequence: float) -> None:
        """Settle, in key order, the owed ends keyed before ``(time, sequence)``.

        Each settled end is the first owed one, so the :meth:`_signal_end`
        that settles it finds nothing owed before it.
        """
        owed = self._owed
        while owed:
            signal = owed[0]
            end_time = signal.end_time
            if end_time > time or (end_time == time and signal.end_sequence >= sequence):
                return
            del owed[0]
            self._signal_end(signal)

    # ------------------------------------------------------------------
    # Transmit path (called by the MAC)
    # ------------------------------------------------------------------
    def transmit(self, packet: Packet, duration: float,
                 on_sent: Optional[Callable[[], None]] = None) -> None:
        """Start transmitting ``packet``; it occupies the air for ``duration`` s.

        ``on_sent``, if given, is called once the frame has left the antenna,
        right after the radio's own end of it.
        """
        sim = self.sim
        now = sim.now
        if self._owed:
            self._settle(now, sim.now_sequence)
        self._transmitting_until = max(self._transmitting_until, now + duration)
        size = packet.size
        stats = self.stats
        stats.frames_sent += 1
        stats.bytes_sent += size
        stats.time_transmitting += duration
        # Transmitting corrupts anything we were in the middle of receiving.
        if self._locked is not None:
            self._locked.corrupted = True
            stats.frames_corrupted += 1
            self._locked = None
        if self.tracer.enabled:
            self.tracer.record(now, "phy", "tx_start", node=self.node_id, uid=packet.uid,
                               size=size, duration=duration)
        transmission = self.channel.broadcast(self, packet, size, duration, on_sent)
        if not self._carrier_was_busy:
            self._carrier_was_busy = True
            if self._notify and self.listener is not None:
                self.listener.on_carrier_busy()
        # Our own end of the frame heads the transmission's end chain: this
        # one event goes on to run the receivers' signal ends.
        sim.schedule(duration, transmission.run_ends)

    def _transmit_complete(self) -> None:
        """Our frame has left the antenna (called by its transmission)."""
        if self._carrier_was_busy:
            now = self.sim.now
            if now >= self._transmitting_until and now >= self._signals_until:
                self._carrier_was_busy = False
                if self._notify and self.listener is not None:
                    self.listener.on_carrier_idle()

    @property
    def is_transmitting(self) -> bool:
        """True while this radio is emitting a frame."""
        return self.sim.now < self._transmitting_until

    # ------------------------------------------------------------------
    # Receive path (called by the channel)
    # ------------------------------------------------------------------
    def signal_start(self, packet: Packet, duration: float, receivable: bool,
                     power: float = 1.0) -> Optional[_Signal]:
        """A signal begins arriving at this radio.

        Args:
            packet: The frame carried by the signal (only decoded if the lock
                survives to the end of the frame); shared with every other
                receiver of the transmission.
            duration: On-air time of the frame in seconds.
            receivable: True if the transmitter is within transmission range.
            power: Relative received power (two-ray-ground, ∝ d^-4).

        Returns:
            The signal, carrying the ``(end_time, end_sequence)`` key at
            which the caller owes this radio a :meth:`_signal_end`; None if
            the signal is quiet and the radio keeps its end itself.
        """
        sim = self.sim
        now = sim.now
        # Settle the owed ends keyed before this start (_settle, in place:
        # nearly every settle is made here).
        owed = self._owed
        while owed:
            first = owed[0]
            if first.end_time > now or (first.end_time == now
                                        and first.end_sequence >= sim.now_sequence):
                break
            del owed[0]
            self._signal_end(first)
        end_time = now + duration
        signal = _new(_Signal)
        signal.packet = packet
        signal.receivable = receivable
        signal.power = power
        signal.end_time = end_time
        signal.duration = duration
        signal.corrupted = False
        if end_time > self._signals_until:
            self._signals_until = end_time

        locked = self._locked
        if now < self._transmitting_until:
            # Half duplex: anything arriving while we transmit is lost.
            signal.corrupted = True
        elif locked is None:
            # Idle: lock onto this signal, decodable or not (ns-2 behaviour).
            self._locked = signal
        else:
            # Overlap with the locked signal: capture or collision.
            floored = power if power > 1e-30 else 1e-30    # max(power, 1e-30)
            if locked.power / floored >= self.capture_threshold:
                self.stats.frames_captured += 1
                signal.corrupted = True
            else:
                self.stats.frames_corrupted += 1
                if self.tracer.enabled:
                    self.tracer.record(now, "phy", "collision", node=self.node_id,
                                       ongoing=locked.packet.uid, new=packet.uid)
                locked.corrupted = True
                signal.corrupted = True

        # A signal is arriving, so the carrier is busy.
        if not self._carrier_was_busy:
            self._carrier_was_busy = True
            if self._notify and self.listener is not None:
                self.listener.on_carrier_busy()
        # The end edge takes its place in the event order here: after
        # whatever the carrier callback above has just scheduled.  (This is
        # Simulator.reserve_sequences, drawn in place.)
        sequence = signal.end_sequence = sim._sequence
        sim._sequence = sequence + 1
        if receivable or self._notify:
            return signal
        if owed and owed[-1].end_time > end_time:
            insort(owed, signal, key=_end_key)
        else:
            owed.append(signal)
        return None

    def _signal_end(self, signal: _Signal) -> None:
        """The end of ``signal``: an edge at its key, or settled."""
        now = signal.end_time
        owed = self._owed
        if owed:
            first = owed[0]
            if first.end_time < now or (first.end_time == now
                                        and first.end_sequence < signal.end_sequence):
                self._settle(now, signal.end_sequence)
        if self._locked is signal:
            self._locked = None
            # The radio was listening to this signal for its whole duration
            # (energy accounting counts overheard and corrupted frames too).
            self.stats.time_receiving += signal.duration
            if signal.corrupted or now < self._transmitting_until:
                pass
            elif not signal.receivable:
                self.stats.frames_below_threshold += 1
            else:
                self.stats.frames_received += 1
                if self.tracer.enabled:
                    self.tracer.record(now, "phy", "rx_ok", node=self.node_id,
                                       uid=signal.packet.uid)
                if self.listener is not None:
                    self.listener.on_frame_received(signal.packet)
        # Nothing has started since the carrier was last found idle, so only
        # busy -> idle needs a look (as in _transmit_complete).
        if self._carrier_was_busy:
            if now >= self._transmitting_until and now >= self._signals_until:
                self._carrier_was_busy = False
                if self._notify and self.listener is not None:
                    self.listener.on_carrier_idle()

    # ------------------------------------------------------------------
    # Carrier sensing
    # ------------------------------------------------------------------
    @property
    def carrier_busy(self) -> bool:
        """True if the medium is sensed busy (any signal arriving or own TX)."""
        now = self.sim.now
        return now < self._transmitting_until or now < self._signals_until
