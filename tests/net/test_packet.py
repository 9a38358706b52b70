"""Tests for packets and header size accounting."""

from __future__ import annotations

import pytest

from repro.core.errors import PacketError
from repro.net.headers import (
    AodvHeader,
    AodvMessageType,
    IpHeader,
    IpProtocol,
    MacFrameType,
    MacHeader,
    TcpFlag,
    TcpHeader,
    UdpHeader,
)
from repro.net.packet import Packet


def make_tcp_data_packet(payload=1460):
    return Packet(
        payload_size=payload,
        ip=IpHeader(src=0, dst=7, protocol=IpProtocol.TCP),
        tcp=TcpHeader(src_port=5001, dst_port=6001, seq=3, timestamp=1.5),
    )


class TestPacketSizes:
    def test_unique_uids(self):
        assert Packet().uid != Packet().uid

    def test_payload_only_size(self):
        assert Packet(payload_size=100).size == 100

    def test_tcp_data_packet_size(self):
        packet = make_tcp_data_packet()
        assert packet.size == 1460 + TcpHeader.SIZE + IpHeader.SIZE

    def test_size_includes_mac_header(self):
        packet = make_tcp_data_packet()
        packet.mac = MacHeader(frame_type=MacFrameType.DATA, src=0, dst=1)
        assert packet.size == 1460 + 20 + 20 + MacHeader.SIZE_DATA

    def test_network_size_excludes_mac(self):
        packet = make_tcp_data_packet()
        packet.mac = MacHeader(frame_type=MacFrameType.DATA, src=0, dst=1)
        assert packet.network_size == 1460 + 40

    def test_tcp_ack_packet_is_40_bytes(self):
        ack = Packet(
            payload_size=0,
            ip=IpHeader(src=7, dst=0, protocol=IpProtocol.TCP),
            tcp=TcpHeader(src_port=6001, dst_port=5001, ack=4, flags=TcpFlag.ACK),
        )
        assert ack.size == 40

    def test_udp_packet_size(self):
        packet = Packet(
            payload_size=1460,
            ip=IpHeader(src=0, dst=1, protocol=IpProtocol.UDP),
            udp=UdpHeader(src_port=1, dst_port=2),
        )
        assert packet.size == 1460 + 8 + 20

    def test_control_frame_sizes(self):
        rts = Packet(mac=MacHeader(frame_type=MacFrameType.RTS, src=0, dst=1))
        cts = Packet(mac=MacHeader(frame_type=MacFrameType.CTS, src=1, dst=0))
        ack = Packet(mac=MacHeader(frame_type=MacFrameType.ACK, src=1, dst=0))
        assert rts.size == 20
        assert cts.size == 14
        assert ack.size == 14

    def test_aodv_packet_size(self):
        packet = Packet(
            ip=IpHeader(src=0, dst=-1, protocol=IpProtocol.AODV),
            aodv=AodvHeader(message_type=AodvMessageType.RREQ, originator=0, destination=5),
        )
        assert packet.size == IpHeader.SIZE + AodvHeader.SIZE


class TestPacketCopy:
    def test_copy_preserves_uid_and_fields(self):
        packet = make_tcp_data_packet()
        clone = packet.copy()
        assert clone.uid == packet.uid
        assert clone.payload_size == packet.payload_size
        assert clone.tcp.seq == packet.tcp.seq

    def test_copy_headers_are_independent(self):
        packet = make_tcp_data_packet()
        clone = packet.copy()
        clone.ip.ttl = 1
        clone.tcp.seq = 99
        assert packet.ip.ttl != 1
        assert packet.tcp.seq == 3

    def test_copy_mac_header_independent(self):
        packet = make_tcp_data_packet()
        packet.mac = MacHeader(frame_type=MacFrameType.DATA, src=0, dst=1)
        clone = packet.copy()
        clone.mac.dst = 5
        assert packet.mac.dst == 1

    def test_copy_aodv_unreachable_list_independent(self):
        packet = Packet(
            ip=IpHeader(src=0, dst=-1, protocol=IpProtocol.AODV),
            aodv=AodvHeader(message_type=AodvMessageType.RERR, unreachable=[(5, 2)]),
        )
        clone = packet.copy()
        clone.aodv.unreachable.append((6, 1))
        assert packet.aodv.unreachable == [(5, 2)]

    def test_copy_of_packet_without_headers(self):
        packet = Packet(payload_size=10)
        clone = packet.copy()
        assert clone.size == 10
        assert clone.mac is None and clone.ip is None


class TestRequireAccessors:
    def test_require_ip_missing_raises(self):
        with pytest.raises(PacketError):
            Packet().require_ip()

    def test_require_tcp_missing_raises(self):
        with pytest.raises(PacketError):
            Packet().require_tcp()

    def test_require_mac_missing_raises(self):
        with pytest.raises(PacketError):
            Packet().require_mac()

    def test_require_aodv_missing_raises(self):
        with pytest.raises(PacketError):
            Packet().require_aodv()

    def test_require_present_returns_header(self):
        packet = make_tcp_data_packet()
        assert packet.require_ip() is packet.ip
        assert packet.require_tcp() is packet.tcp
