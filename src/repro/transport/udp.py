"""UDP agents and the paced (CBR) UDP source.

The paper uses an "optimally paced UDP" flow as an upper bound on the goodput a
transport protocol can achieve over an IEEE 802.11 chain: a constant-bit-rate
source that transmits one 1460-byte datagram every *t* seconds, with *t* tuned
offline to the value that maximizes sink goodput (Figure 10).  There are no
acknowledgements and no retransmissions; goodput is simply what arrives at the
sink.
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


class PacedUdpSource:
    """Constant-bit-rate driver for a :class:`UdpSender`.

    Args:
        sim: Simulation engine.
        sender: The UDP sender to drive.
        interval: Time *t* between successive datagram transmissions (s).
        start_time: Simulation time of the first transmission.
        packet_limit: Optional cap on the number of datagrams sent.
    """

    def __init__(
        self,
        sim: Simulator,
        sender: UdpSender,
        interval: float,
        start_time: float = 0.0,
        packet_limit: Optional[int] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("pacing interval must be positive")
        self.sim = sim
        self.sender = sender
        self.interval = interval
        self.start_time = start_time
        self.packet_limit = packet_limit
        self._running = False

    def start(self) -> None:
        """Schedule the first transmission."""
        if self._running:
            return
        self._running = True
        delay = max(0.0, self.start_time - self.sim.now)
        self.sim.schedule(delay, self._tick)

    def stop(self) -> None:
        """Stop generating datagrams (the pending one still fires harmlessly)."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        if self.packet_limit is not None and self.sender.datagrams_sent >= self.packet_limit:
            self._running = False
            return
        self.sender.send_datagram()
        self.sim.schedule(self.interval, self._tick)
