"""The packet object exchanged between protocol layers.

A :class:`Packet` carries an application payload size plus a stack of headers
added as it descends the protocol stack.  Its :attr:`Packet.size` is the sum of
the payload and all attached header sizes, which is what the PHY uses for
serialization delay.  A frame on the air is one object shared read-only by
every receiver and every layer above it.  Only a sender that goes on changing
its packet copies it for the air: the MAC copies the DATA or broadcast frame
it may still retry or hand back, while an RTS, CTS or ACK is built for one
transmission and goes out as it is.  Per-hop mutation (TTL, MAC addressing)
stays local because whoever wants to change a received packet copies it
first — routing does, where it forwards one.  A frame that is read and
dropped, or delivered to the local transport, is never copied.

Packets and their headers use ``__slots__`` and hand-rolled ``copy`` paths:
one copy per DATA or broadcast transmission and one per hop forwarded still
make packet copying a hot allocation site.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import PacketError
from repro.net.headers import AodvHeader, IpHeader, MacHeader, TcpHeader, UdpHeader

_packet_ids = itertools.count(1)


def next_packet_id() -> int:
    """Draw the next uid from the global packet counter.

    Fast constructors that build packets with ``__new__`` (bypassing the
    dataclass ``__init__`` and its ``default_factory``) must draw their uid
    through this helper so the counter advances exactly as if the dataclass
    constructor had run — pinned golden traces depend on it.
    """
    return next(_packet_ids)


def reset_packet_ids() -> None:
    """Restart the global packet uid counter at 1.

    Intended for tests and benchmarks that pin deterministic traces: packet
    uids appear in trace records, so reproducing a golden trace requires the
    counter to start from a known state.
    """
    global _packet_ids
    _packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """A simulated packet.

    Attributes:
        payload_size: Application payload in bytes.
        uid: Globally unique packet id (survives copies for tracing; copies of
            a broadcast share the uid on purpose).
        flow_id: Identifier of the end-to-end flow this packet belongs to, used
            for per-flow accounting.  ``None`` for control traffic.
        created_at: Simulation time at which the packet was created.
        mac: MAC header, present while the packet is at/below the link layer.
        ip: IP header, present for all routed packets.
        tcp: TCP header for TCP segments/ACKs.
        udp: UDP header for UDP datagrams.
        aodv: AODV header for routing control messages.
    """

    payload_size: int = 0
    uid: int = field(default_factory=lambda: next(_packet_ids))
    flow_id: Optional[int] = None
    created_at: float = 0.0
    mac: Optional[MacHeader] = None
    ip: Optional[IpHeader] = None
    tcp: Optional[TcpHeader] = None
    udp: Optional[UdpHeader] = None
    aodv: Optional[AodvHeader] = None

    @property
    def size(self) -> int:
        """Total on-air size in bytes: payload plus all attached headers."""
        total = self.payload_size
        if self.mac is not None:
            total += self.mac.size
        if self.ip is not None:
            total += self.ip.size
        if self.tcp is not None:
            total += self.tcp.size
        if self.udp is not None:
            total += self.udp.size
        if self.aodv is not None:
            total += self.aodv.size
        return total

    @property
    def network_size(self) -> int:
        """Size in bytes above the MAC layer (payload + IP/transport headers)."""
        total = self.payload_size
        if self.ip is not None:
            total += self.ip.size
        if self.tcp is not None:
            total += self.tcp.size
        if self.udp is not None:
            total += self.udp.size
        if self.aodv is not None:
            total += self.aodv.size
        return total

    def copy(self) -> "Packet":
        """Return an independent copy of this packet (same uid, fresh headers).

        Implemented with ``__new__`` plus per-header ``clone()`` calls rather
        than :func:`copy.deepcopy` or the dataclass constructor: the MAC
        copies every DATA and broadcast frame it sends and routing copies
        every packet it forwards, so this is a hot path.  Call it before
        changing a packet somebody else may hold — a received frame above all.
        """
        new = object.__new__(Packet)
        new.payload_size = self.payload_size
        new.uid = self.uid
        new.flow_id = self.flow_id
        new.created_at = self.created_at
        mac = self.mac
        new.mac = mac.clone() if mac is not None else None
        ip = self.ip
        new.ip = ip.clone() if ip is not None else None
        tcp = self.tcp
        new.tcp = tcp.clone() if tcp is not None else None
        udp = self.udp
        new.udp = udp.clone() if udp is not None else None
        aodv = self.aodv
        new.aodv = aodv.clone() if aodv is not None else None
        return new

    # ------------------------------------------------------------------
    # Header accessors that raise a clear error when a layer is missing.
    # ------------------------------------------------------------------
    def require_ip(self) -> IpHeader:
        """Return the IP header or raise :class:`PacketError` if absent."""
        if self.ip is None:
            raise PacketError(f"packet {self.uid} has no IP header")
        return self.ip

    def require_mac(self) -> MacHeader:
        """Return the MAC header or raise :class:`PacketError` if absent."""
        if self.mac is None:
            raise PacketError(f"packet {self.uid} has no MAC header")
        return self.mac

    def require_tcp(self) -> TcpHeader:
        """Return the TCP header or raise :class:`PacketError` if absent."""
        if self.tcp is None:
            raise PacketError(f"packet {self.uid} has no TCP header")
        return self.tcp

    def require_aodv(self) -> AodvHeader:
        """Return the AODV header or raise :class:`PacketError` if absent."""
        if self.aodv is None:
            raise PacketError(f"packet {self.uid} has no AODV header")
        return self.aodv

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"uid={self.uid}", f"size={self.size}"]
        if self.ip is not None:
            parts.append(f"ip={self.ip.src}->{self.ip.dst}/{self.ip.protocol.value}")
        if self.tcp is not None:
            parts.append(f"tcp seq={self.tcp.seq} ack={self.tcp.ack}")
        if self.udp is not None:
            parts.append(f"udp seq={self.udp.seq}")
        if self.aodv is not None:
            parts.append(f"aodv {self.aodv.message_type.value}")
        if self.mac is not None:
            parts.append(f"mac {self.mac.frame_type.value} {self.mac.src}->{self.mac.dst}")
        return f"Packet({', '.join(parts)})"
