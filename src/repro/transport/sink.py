"""TCP sinks: the standard ACK-every-packet sink and the ACK-thinning sink.

The sink is the receiving endpoint of a TCP flow.  It reassembles the segment
sequence, records goodput (in-order payload bytes delivered) in the shared
:class:`repro.transport.stats.FlowStats`, and generates cumulative ACKs.  The
acknowledgement policy is either immediate (one ACK per received data packet,
the ns-2 default the paper uses for plain NewReno/Vegas) or the dynamic ACK
thinning of Altman & Jiménez (see :mod:`repro.transport.ack_thinning`).
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.core.engine import Simulator, Timer
from repro.core.tracing import NULL_TRACER, Tracer
from repro.net.address import FlowAddress
from repro.net.headers import IpHeader, IpProtocol, TcpFlag, TcpHeader
from repro.net.packet import Packet
from repro.transport.ack_thinning import AckThinningPolicy
from repro.transport.stats import FlowStats
from repro.transport.tcp_base import TransportAgent


class TcpSink(TransportAgent):
    """Receiving endpoint of a TCP flow; acknowledges every data packet."""

    def __init__(
        self,
        sim: Simulator,
        flow: FlowAddress,
        flow_stats: FlowStats,
        mss: int = 1460,
        send_callback: Optional[Callable[[Packet], None]] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(
            sim=sim,
            flow=flow,
            local_node=flow.dst_node,
            local_port=flow.dst_port,
            send_callback=send_callback,
            tracer=tracer,
        )
        self.stats = flow_stats
        self.mss = mss
        self.next_expected = 0
        self.highest_seq_received = -1
        self._out_of_order: Set[int] = set()

    # ------------------------------------------------------------------
    # Receiving data
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Process an arriving data segment and acknowledge it."""
        tcp = packet.require_tcp()
        seq = tcp.seq
        self.highest_seq_received = max(self.highest_seq_received, seq)
        in_order = False
        if seq == self.next_expected:
            delivered = 1
            self.next_expected += 1
            while self.next_expected in self._out_of_order:
                self._out_of_order.discard(self.next_expected)
                self.next_expected += 1
                delivered += 1
            self.stats.record_delivery(self.sim.now, delivered * self.mss, delivered)
            in_order = True
        elif seq > self.next_expected:
            self._out_of_order.add(seq)
        # seq < next_expected: duplicate of already-delivered data.
        self._acknowledge(packet, in_order=in_order)

    # ------------------------------------------------------------------
    # Acknowledgement policy (overridden by the thinning sink)
    # ------------------------------------------------------------------
    def _acknowledge(self, trigger: Packet, in_order: bool) -> None:
        self.send_ack(trigger)

    def send_ack(self, trigger: Packet) -> None:
        """Emit a cumulative ACK towards the sender."""
        tcp = trigger.require_tcp()
        header = TcpHeader(
            src_port=self.flow.dst_port,
            dst_port=self.flow.src_port,
            ack=self.next_expected,
            flags=TcpFlag.ACK,
            window=64,
            echo_timestamp=tcp.timestamp,
        )
        ack_packet = Packet(
            payload_size=0,
            flow_id=self.stats.flow_id,
            created_at=self.sim.now,
            ip=IpHeader(src=self.flow.dst_node, dst=self.flow.src_node,
                        protocol=IpProtocol.TCP),
            tcp=header,
        )
        self.stats.acks_sent += 1
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "tcp", "ack", node=self.local_node,
                               ack=self.next_expected, flow=self.stats.flow_id)
        self._send_ip(ack_packet)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def delivered_packets(self) -> int:
        """Number of in-order segments delivered to the application."""
        return self.next_expected


class AckThinningSink(TcpSink):
    """TCP sink implementing dynamic ACK thinning.

    The sink acknowledges every *d*-th packet (d depends on the highest
    sequence number received, growing from 1 to 4) and otherwise withholds the
    ACK for at most ``policy.max_delay`` seconds.  Out-of-order arrivals are
    acknowledged immediately so the sender's duplicate-ACK loss detection keeps
    working.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: FlowAddress,
        flow_stats: FlowStats,
        mss: int = 1460,
        policy: Optional[AckThinningPolicy] = None,
        send_callback: Optional[Callable[[Packet], None]] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(
            sim=sim,
            flow=flow,
            flow_stats=flow_stats,
            mss=mss,
            send_callback=send_callback,
            tracer=tracer,
        )
        self.policy = policy or AckThinningPolicy()
        self._unacked_packets = 0
        self._pending_trigger: Optional[Packet] = None
        self._delay_timer = Timer(sim, self._on_delay_expired)

    @property
    def current_degree(self) -> int:
        """Thinning degree *d* currently in effect."""
        return self.policy.degree(max(self.highest_seq_received, 0))

    def _acknowledge(self, trigger: Packet, in_order: bool) -> None:
        if not in_order:
            # Duplicate or out-of-order data: acknowledge immediately so the
            # sender sees duplicate ACKs and can recover the loss.
            self._flush_ack(trigger)
            return
        self._unacked_packets += 1
        self._pending_trigger = trigger
        if self._unacked_packets >= self.current_degree:
            self._flush_ack(trigger)
        elif not self._delay_timer.is_pending:
            self._delay_timer.start(self.policy.max_delay)

    def _flush_ack(self, trigger: Packet) -> None:
        self._delay_timer.cancel()
        self._unacked_packets = 0
        self._pending_trigger = None
        self.send_ack(trigger)

    def _on_delay_expired(self) -> None:
        if self._pending_trigger is not None:
            self._flush_ack(self._pending_trigger)
