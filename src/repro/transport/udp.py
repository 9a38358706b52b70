"""UDP agents.

The paper uses an "optimally paced UDP" flow as an upper bound on the goodput a
transport protocol can achieve over an IEEE 802.11 chain: a constant-bit-rate
source that transmits one 1460-byte datagram every *t* seconds, with *t* tuned
offline to the value that maximizes sink goodput (Figure 10).  There are no
acknowledgements and no retransmissions; goodput is simply what arrives at the
sink.  :class:`~repro.app.cbr.CbrApplication` paces the sender.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.engine import Simulator
from repro.core.tracing import NULL_TRACER, Tracer
from repro.net.address import FlowAddress
from repro.net.headers import IpHeader, IpProtocol, UdpHeader
from repro.net.packet import Packet
from repro.transport.stats import FlowStats
from repro.transport.tcp_base import TransportAgent


class UdpSender(TransportAgent):
    """Simple UDP sender: transmits datagrams on demand (driven by an app)."""

    def __init__(
        self,
        sim: Simulator,
        flow: FlowAddress,
        flow_stats: FlowStats,
        payload_size: int = 1460,
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
        self.stats = flow_stats
        self.payload_size = payload_size
        self._next_seq = 0

    def send_datagram(self) -> None:
        """Transmit one datagram of ``payload_size`` bytes."""
        header = UdpHeader(
            src_port=self.flow.src_port,
            dst_port=self.flow.dst_port,
            seq=self._next_seq,
        )
        packet = Packet(
            payload_size=self.payload_size,
            flow_id=self.stats.flow_id,
            created_at=self.sim.now,
            ip=IpHeader(src=self.flow.src_node, dst=self.flow.dst_node,
                        protocol=IpProtocol.UDP),
            udp=header,
        )
        self._next_seq += 1
        self.stats.packets_sent += 1
        self._send_ip(packet)

    @property
    def datagrams_sent(self) -> int:
        """Number of datagrams handed to the network so far."""
        return self._next_seq

    def receive(self, packet: Packet) -> None:
        """UDP senders in this study never receive traffic."""


class UdpSink(TransportAgent):
    """UDP sink: counts every received datagram towards goodput."""

    def __init__(
        self,
        sim: Simulator,
        flow: FlowAddress,
        flow_stats: FlowStats,
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
        self.received = 0

    def receive(self, packet: Packet) -> None:
        """Record the arrival of a datagram."""
        self.received += 1
        self.stats.record_delivery(self.sim.now, packet.payload_size, packets=1)
