"""Nobody writes to a frame it received.

Every receiver of a transmission is handed the same packet object, the MAC
passes it up as it is, and the layers above copy before they change anything
(routing does, where it forwards).  The golden traces would show most
violations as a changed digest; this names the culprit instead.  Every frame
is recorded field by field when the channel takes its snapshot and compared
after each listener that was handed it returns, and again once its
transmission's end chain has run its last end (the ends of quiet signals are
not in it: nobody can decode those); frames on a wired bus, shared the same
way, are compared around their delivery.  Test-side only: nothing in a run checks.
"""

from __future__ import annotations

import pytest

from repro.core.tracing import NULL_TRACER
from repro.link.wired import WiredBus
from repro.net.packet import Packet, reset_packet_ids
from repro.phy.channel import WirelessChannel, _Transmission
from repro.phy.radio import Radio

from tests.regression.test_golden_traces import SCENARIOS

_LAYERS = ("mac", "ip", "tcp", "udp", "aodv")


def fields_of(packet: Packet) -> dict:
    """Every field of the packet and of each header it carries, by name."""
    fields = {name: getattr(packet, name)
              for name in ("payload_size", "uid", "flow_id", "created_at")}
    for layer in _LAYERS:
        header = getattr(packet, layer)
        fields[layer] = header is not None
        if header is not None:
            for name in header.__slots__:
                value = getattr(header, name)
                fields[f"{layer}.{name}"] = list(value) if isinstance(value, list) else value
    return fields


class FrameWatch:
    """Hooks on the channel, the radios and the wired bus for one run."""

    def __init__(self, monkeypatch):
        self.sent = {}          # id(snapshot) -> (snapshot, its fields at broadcast)
        self.checked = 0
        watch = self
        broadcast = WirelessChannel.broadcast
        signal_end = Radio._signal_end
        run_ends = _Transmission.run_ends
        deliver = WiredBus._deliver

        def watched_broadcast(channel, sender, packet, size, duration, on_sent=None):
            transmission = broadcast(channel, sender, packet, size, duration, on_sent)
            frame = transmission.packet
            watch.sent[id(frame)] = (frame, fields_of(frame))
            return transmission

        def watched_signal_end(radio, signal):
            handed_up = radio.stats.frames_received
            signal_end(radio, signal)
            if radio.stats.frames_received != handed_up:
                watch.compare(signal.packet, f"node {radio.node_id}'s "
                              f"{type(radio.listener).__name__} or a layer above it")

        def watched_run_ends(transmission):
            run_ends(transmission)
            if (transmission.started == len(transmission.deliveries.radios)
                    and transmission.ended == len(transmission.signals)):
                watch.compare(transmission.packet, "somebody who kept it")
                del watch.sent[id(transmission.packet)]

        def watched_deliver(bus, transmission):
            before = fields_of(transmission.packet)
            deliver(bus, transmission)
            watch.compare_fields(transmission.packet, before,
                                 f"a port on wired bus {bus.bus_id} or a layer above it")

        monkeypatch.setattr(WirelessChannel, "broadcast", watched_broadcast)
        monkeypatch.setattr(Radio, "_signal_end", watched_signal_end)
        monkeypatch.setattr(_Transmission, "run_ends", watched_run_ends)
        monkeypatch.setattr(WiredBus, "_deliver", watched_deliver)

    def compare(self, frame: Packet, who: str) -> None:
        self.compare_fields(frame, self.sent[id(frame)][1], who)

    def compare_fields(self, frame: Packet, before: dict, who: str) -> None:
        self.checked += 1
        now = fields_of(frame)
        changed = {name: (before.get(name), now.get(name))
                   for name in before.keys() | now.keys()
                   if before.get(name) != now.get(name)}
        assert not changed, f"{who} changed received frame uid={frame.uid}: {changed}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_runs_leave_every_received_frame_as_sent(name, monkeypatch):
    watch = FrameWatch(monkeypatch)
    reset_packet_ids()
    result = SCENARIOS[name](NULL_TRACER).run()
    assert result.delivered_packets > 0
    assert watch.checked > result.mac_frames_sent       # at least once per frame
    assert len(watch.sent) < 50                         # only frames still on the air


def test_a_listener_that_writes_is_named(monkeypatch):
    from repro.routing.static import StaticRouting
    from repro.experiments.scenarios import build_named_scenario

    def careless(self, packet):
        packet.require_ip().ttl -= 1            # what routing did before it copied
        self._deliver_or_forward(packet)

    FrameWatch(monkeypatch)
    monkeypatch.setattr(StaticRouting, "on_mac_delivery", careless)
    reset_packet_ids()
    scenario = build_named_scenario("chain7-vegas-2mbps", packet_target=5, seed=3,
                                    routing="static")
    with pytest.raises(AssertionError, match=r"node \d+'s Ieee80211Mac or a layer "
                                             r"above it changed .*'ip.ttl'"):
        scenario.run()
