"""Constant-bit-rate application (the paced UDP source).

Used to model the paper's "optimally paced UDP": one 1460-byte datagram every
*t* seconds, with *t* chosen offline for maximum goodput (Figure 10).
"""

from __future__ import annotations

from typing import Optional

from repro.app.base import Application
from repro.core.engine import Simulator
from repro.transport.udp import UdpSender


class CbrApplication(Application):
    """Paces a :class:`UdpSender`: one datagram every ``interval`` seconds.

    Args:
        sim: Simulation engine.
        sender: The UDP sender to drive.
        interval: Time *t* between successive datagrams (s); must be positive.
        start_time: Simulation time the application starts.
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
        super().__init__(sim, start_time)
        self.sender = sender
        self.interval = interval
        self.packet_limit = packet_limit
        self._running = False

    def on_start(self) -> None:
        """Send the first datagram one zero-delay event from now, then pace."""
        self._running = True
        self.sim.schedule(0.0, self._tick)

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
