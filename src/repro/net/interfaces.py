"""Abstract layer contracts.

These small abstract base classes document the interfaces between layers and
allow tests to substitute lightweight fakes (e.g. a scripted MAC below a real
TCP agent).  Concrete implementations live in :mod:`repro.mac`,
:mod:`repro.routing` and :mod:`repro.link`.
"""

from __future__ import annotations

import abc

from repro.net.packet import Packet


class PhyListener(abc.ABC):
    """Callbacks a PHY delivers to the layer above it (the MAC).

    They run at the receiving radio's own signal edges — each at the
    ``(time, sequence)`` place in the event order that an event of its own
    would have — whether or not the edge took a trip through the event queue
    (see :class:`repro.phy.channel._Transmission`).  The two carrier callbacks
    are made only while the listener keeps ``Radio.notify_carrier`` set.
    """

    @abc.abstractmethod
    def on_frame_received(self, packet: Packet) -> None:
        """A frame was successfully received (addressed to anyone).

        ``packet`` is the one frame object that every receiver of the
        transmission is given: read it freely, ``packet.copy()`` before
        changing anything.  Whoever it is passed on to is held to the same.
        """

    @abc.abstractmethod
    def on_carrier_busy(self) -> None:
        """The physical carrier transitioned from idle to busy."""

    @abc.abstractmethod
    def on_carrier_idle(self) -> None:
        """The physical carrier transitioned from busy to idle."""


class MacListener(abc.ABC):
    """Callbacks the MAC delivers to the layer above it (routing/queue owner)."""

    @abc.abstractmethod
    def on_mac_delivery(self, packet: Packet) -> None:
        """A unicast or broadcast data frame addressed to this node arrived.

        ``packet`` is the received frame itself, shared with its other
        receivers: ``packet.copy()`` before changing anything.
        """

    @abc.abstractmethod
    def on_mac_send_failure(self, packet: Packet, next_hop: int) -> None:
        """The MAC gave up on ``packet`` after exhausting its retry limits."""

    @abc.abstractmethod
    def on_mac_send_success(self, packet: Packet, next_hop: int) -> None:
        """The MAC completed the frame exchange for ``packet``."""
