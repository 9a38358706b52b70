"""Packet-level TCP sender base class.

The agents model TCP the way ns-2's one-way agents do (which is what the paper
uses): data flows in MSS-sized segments identified by integer sequence numbers,
the sink returns cumulative ACKs, and there is no connection handshake or byte
stream reassembly.  Congestion control is supplied by subclasses
(:class:`repro.transport.newreno.NewRenoSender`,
:class:`repro.transport.vegas.VegasSender`) through the ``on_new_ack`` /
``on_dup_ack`` / ``on_timeout`` hooks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.engine import Simulator, Timer
from repro.core.errors import TransportError
from repro.core.tracing import NULL_TRACER, Tracer
from repro.net.address import FlowAddress
from repro.net.headers import IpHeader, IpProtocol, TcpFlag, TcpHeader
from repro.net.packet import Packet
from repro.transport.rtt import RttEstimator
from repro.transport.stats import FlowStats


@dataclass(frozen=True)
class TcpConfig:
    """TCP parameters (Table 1 of the paper plus timer settings).

    Attributes:
        mss: Segment payload size in bytes (the paper uses 1460-byte packets).
        max_window: Receiver-advertised window W_max in segments (64).
        initial_window: Initial congestion window W_init in segments (1).
        initial_ssthresh: Initial slow-start threshold in segments.
        dupack_threshold: Number of duplicate ACKs triggering fast retransmit.
        min_rto: Lower bound on the retransmission timeout (s).
        initial_rto: RTO before the first RTT measurement (s).
        max_rto: Upper bound on the retransmission timeout (s).
    """

    mss: int = 1460
    max_window: int = 64
    initial_window: int = 1
    initial_ssthresh: int = 64
    dupack_threshold: int = 3
    min_rto: float = 0.2
    initial_rto: float = 3.0
    max_rto: float = 60.0


class TransportAgent(abc.ABC):
    """Base class for all transport endpoints (TCP senders, sinks, UDP).

    Args:
        sim: Simulation engine.
        flow: End-to-end flow address; ``flow.src_node`` must be the node this
            agent is installed on for senders, ``flow.dst_node`` for sinks.
        local_node: Node id the agent runs on.
        local_port: Port this agent listens on at ``local_node``.
        send_callback: Function that hands an IP packet to the local routing
            layer (wired up by :class:`repro.net.node.Node`).
        tracer: Optional tracer.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: FlowAddress,
        local_node: int,
        local_port: int,
        send_callback: Optional[Callable[[Packet], None]] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.flow = flow
        self.local_node = local_node
        self.local_port = local_port
        self.send_callback = send_callback
        self.tracer = tracer

    def attach(self, send_callback: Callable[[Packet], None]) -> None:
        """Connect the agent to its node's routing layer."""
        self.send_callback = send_callback

    def _send_ip(self, packet: Packet) -> None:
        if self.send_callback is None:
            raise TransportError("transport agent is not attached to a node")
        self.send_callback(packet)

    @abc.abstractmethod
    def receive(self, packet: Packet) -> None:
        """Handle a packet delivered to this agent's port."""


class TcpSender(TransportAgent):
    """Common machinery for packet-level TCP senders.

    Subclasses implement the congestion-control hooks.  The sender models a
    persistent (FTP-like) source by default: it always has data to send until
    ``data_limit_packets`` (if set) is reached.

    Attributes:
        cwnd: Congestion window in segments (float; fractional growth in
            congestion avoidance).
        ssthresh: Slow-start threshold in segments.
        snd_una: Lowest unacknowledged sequence number.
        snd_nxt: Next new sequence number to be sent.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: FlowAddress,
        flow_stats: FlowStats,
        config: Optional[TcpConfig] = None,
        data_limit_packets: Optional[int] = None,
        send_callback: Optional[Callable[[Packet], None]] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(
            sim=sim,
            flow=flow,
            local_node=flow.src_node,
            local_port=flow.src_port,
            send_callback=send_callback,
            tracer=tracer,
        )
        self.config = config or TcpConfig()
        self.stats = flow_stats
        self.data_limit_packets = data_limit_packets

        self.cwnd: float = float(self.config.initial_window)
        self.ssthresh: float = float(self.config.initial_ssthresh)
        self.snd_una: int = 0
        self.snd_nxt: int = 0
        self.dupacks: int = 0
        self.started = False

        self.rtt = RttEstimator(
            min_rto=self.config.min_rto,
            initial_rto=self.config.initial_rto,
            max_rto=self.config.max_rto,
        )
        self._rtx_timer = Timer(sim, self._on_rtx_timeout)
        #: seq -> (send time, was_retransmitted) for Karn/Vegas bookkeeping.
        self._send_times: Dict[int, Tuple[float, bool]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (typically scheduled by the application)."""
        if self.started:
            return
        self.started = True
        self.stats.record_window(self.sim.now, self.cwnd)
        self.send_available()

    def stop(self) -> None:
        """Stop the sender and cancel its retransmission timer."""
        self.started = False
        self._rtx_timer.cancel()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def effective_window(self) -> int:
        """Usable window: min(cwnd, advertised window), at least one segment."""
        return max(1, min(int(self.cwnd), self.config.max_window))

    def _app_has_data(self, seq: int) -> bool:
        if self.data_limit_packets is None:
            return True
        return seq < self.data_limit_packets

    def send_available(self) -> None:
        """Send as many new segments as the current window permits."""
        if not self.started:
            return
        while (
            self.snd_nxt < self.snd_una + self.effective_window()
            and self._app_has_data(self.snd_nxt)
        ):
            self._send_segment(self.snd_nxt, is_retransmission=False)
            self.snd_nxt += 1
        self._ensure_timer()

    def retransmit(self, seq: int) -> None:
        """Retransmit segment ``seq`` and restart the retransmission timer."""
        self._send_segment(seq, is_retransmission=True)
        self._rtx_timer.start(self.rtt.timeout())

    def _send_segment(self, seq: int, is_retransmission: bool) -> None:
        now = self.sim.now
        header = TcpHeader(
            src_port=self.flow.src_port,
            dst_port=self.flow.dst_port,
            seq=seq,
            window=self.config.max_window,
            timestamp=now,
        )
        packet = Packet(
            payload_size=self.config.mss,
            flow_id=self.stats.flow_id,
            created_at=now,
            ip=IpHeader(src=self.flow.src_node, dst=self.flow.dst_node,
                        protocol=IpProtocol.TCP),
            tcp=header,
        )
        self.stats.packets_sent += 1
        if is_retransmission:
            self.stats.retransmissions += 1
        previous = self._send_times.get(seq)
        retransmitted = is_retransmission or (previous is not None and previous[1])
        self._send_times[seq] = (now, retransmitted)
        if self.tracer.enabled:
            self.tracer.record(now, "tcp", "send", node=self.local_node, seq=seq,
                               flow=self.stats.flow_id, rtx=is_retransmission)
        self._send_ip(packet)

    def _ensure_timer(self) -> None:
        if self.snd_una < self.snd_nxt and not self._rtx_timer.is_pending:
            self._rtx_timer.start(self.rtt.timeout())

    # ------------------------------------------------------------------
    # Receiving ACKs
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Process an incoming ACK segment."""
        tcp = packet.require_tcp()
        if not tcp.is_ack:
            return
        self.stats.acks_received += 1
        ack = tcp.ack
        if ack > self.snd_una:
            self._handle_new_ack(ack, packet)
        elif ack == self.snd_una and self.snd_una < self.snd_nxt:
            self.dupacks += 1
            self.on_dup_ack(packet)
        self.send_available()

    def _handle_new_ack(self, ack: int, packet: Packet) -> None:
        tcp = packet.require_tcp()
        sample = self._rtt_sample(tcp)
        if sample is not None:
            self.rtt.update(sample)
            if self.stats.series_enabled:
                self.stats.record_rtt(self.sim.now, sample)
        newly_acked = ack - self.snd_una
        for seq in range(self.snd_una, ack):
            self._send_times.pop(seq, None)
        self.snd_una = ack
        self.dupacks = 0
        self.rtt.reset_backoff()
        self.on_new_ack(newly_acked, packet)
        if self.snd_una >= self.snd_nxt and (
            self.data_limit_packets is None or self.snd_una >= self.data_limit_packets
        ):
            self._rtx_timer.cancel()
        else:
            self._rtx_timer.start(self.rtt.timeout())

    def _rtt_sample(self, tcp: TcpHeader) -> Optional[float]:
        if tcp.echo_timestamp <= 0:
            return None
        sample = self.sim.now - tcp.echo_timestamp
        return sample if sample > 0 else None

    def segment_age(self, seq: int) -> Optional[float]:
        """Seconds since segment ``seq`` was (re)transmitted, if outstanding."""
        entry = self._send_times.get(seq)
        if entry is None:
            return None
        return self.sim.now - entry[0]

    # ------------------------------------------------------------------
    # Window handling
    # ------------------------------------------------------------------
    def set_cwnd(self, value: float) -> None:
        """Set the congestion window, clamped to [1, max_window]."""
        clamped = max(1.0, min(float(value), float(self.config.max_window)))
        self.cwnd = clamped
        self.stats.record_window(self.sim.now, self.cwnd)

    @property
    def flight_size(self) -> int:
        """Number of outstanding (unacknowledged) segments."""
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # Timeout handling
    # ------------------------------------------------------------------
    def _on_rtx_timeout(self) -> None:
        if self.snd_una >= self.snd_nxt:
            return
        self.stats.timeouts += 1
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "tcp", "rto", node=self.local_node,
                               flow=self.stats.flow_id, una=self.snd_una)
        self.rtt.apply_backoff()
        self.on_timeout()
        self.retransmit(self.snd_una)

    # ------------------------------------------------------------------
    # Congestion-control hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def on_new_ack(self, newly_acked: int, packet: Packet) -> None:
        """Called for every ACK that advances ``snd_una``."""

    @abc.abstractmethod
    def on_dup_ack(self, packet: Packet) -> None:
        """Called for every duplicate ACK."""

    @abc.abstractmethod
    def on_timeout(self) -> None:
        """Called when the retransmission timer expires (before retransmit)."""
