"""Tests for the abstract layer contracts in :mod:`repro.net.interfaces`."""

from __future__ import annotations

import pytest

from repro.net.interfaces import MacListener, PhyListener
from repro.net.packet import Packet


@pytest.mark.parametrize("contract", [PhyListener, MacListener])
def test_contracts_cannot_be_instantiated_directly(contract):
    with pytest.raises(TypeError):
        contract()


def test_partial_implementation_is_still_abstract():
    class HalfListener(PhyListener):
        def on_frame_received(self, packet):
            pass

    with pytest.raises(TypeError):
        HalfListener()


def test_complete_phy_listener_is_instantiable_and_callable():
    events = []

    class Recorder(PhyListener):
        def on_frame_received(self, packet):
            events.append(("rx", packet.uid))

        def on_carrier_busy(self):
            events.append(("busy", None))

        def on_carrier_idle(self):
            events.append(("idle", None))

    recorder = Recorder()
    packet = Packet(payload_size=10)
    recorder.on_carrier_busy()
    recorder.on_frame_received(packet)
    recorder.on_carrier_idle()
    assert events == [("busy", None), ("rx", packet.uid), ("idle", None)]


def test_complete_mac_listener_is_instantiable():
    calls = []

    class Recorder(MacListener):
        def on_mac_delivery(self, packet):
            calls.append("delivery")

        def on_mac_send_failure(self, packet, next_hop):
            calls.append(f"fail->{next_hop}")

        def on_mac_send_success(self, packet, next_hop):
            calls.append(f"ok->{next_hop}")

    recorder = Recorder()
    packet = Packet()
    recorder.on_mac_delivery(packet)
    recorder.on_mac_send_success(packet, 3)
    recorder.on_mac_send_failure(packet, 4)
    assert calls == ["delivery", "ok->3", "fail->4"]


def test_concrete_stack_classes_implement_the_contracts():
    from repro.mac.ieee80211 import Ieee80211Mac
    from repro.routing.base import RoutingProtocol

    assert issubclass(Ieee80211Mac, PhyListener)
    assert issubclass(RoutingProtocol, MacListener)
