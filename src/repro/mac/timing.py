"""IEEE 802.11 (DSSS / 802.11b) MAC and PHY timing parameters.

The paper runs IEEE 802.11 at data rates of 2, 5.5 and 11 Mbit/s while RTS,
CTS and ACK control frames (and the PLCP preamble/header of every frame) are
always sent at the 1 Mbit/s basic rate "to achieve compatibility between
different IEEE 802.11 versions".  That fixed control overhead is the reason the
paper observes sub-linear goodput growth with increasing bandwidth, so the
timing model here keeps it explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.units import MBPS, MICROSECOND, transmission_time
from repro.net.headers import MacHeader


@dataclass(frozen=True)
class MacTiming:
    """Timing parameters of the 802.11 DCF.

    Attributes:
        data_rate: Rate for DATA frame bodies (bit/s): 2, 5.5 or 11 Mbit/s.
        basic_rate: Rate for control frames and MAC headers (bit/s).
        slot_time: Backoff slot duration (s).
        sifs: Short inter-frame space (s).
        plcp_overhead: PLCP preamble + header duration (s), always at 1 Mbit/s
            with the long preamble.
        cw_min: Minimum contention window (slots).
        cw_max: Maximum contention window (slots).
        short_retry_limit: Maximum transmission attempts for RTS frames.
        long_retry_limit: Maximum transmission attempts for DATA frames.
        rts_threshold: Packets larger than this (bytes) use the RTS/CTS
            handshake; the paper precedes every data packet with RTS/CTS.
    """

    data_rate: float = 2 * MBPS
    basic_rate: float = 1 * MBPS
    slot_time: float = 20 * MICROSECOND
    sifs: float = 10 * MICROSECOND
    plcp_overhead: float = 192 * MICROSECOND
    cw_min: int = 31
    cw_max: int = 1023
    short_retry_limit: int = 7
    long_retry_limit: int = 4
    rts_threshold: int = 0

    @property
    def difs(self) -> float:
        """DIFS = SIFS + 2 slot times."""
        return self.sifs + 2 * self.slot_time

    # ------------------------------------------------------------------
    # Frame durations
    # ------------------------------------------------------------------
    def control_duration(self, size_bytes: int) -> float:
        """On-air time of a control frame of ``size_bytes`` at the basic rate."""
        return self.plcp_overhead + transmission_time(size_bytes, self.basic_rate)

    @property
    def rts_duration(self) -> float:
        """On-air time of an RTS frame."""
        return self.control_duration(MacHeader.SIZE_RTS)

    @property
    def cts_duration(self) -> float:
        """On-air time of a CTS frame."""
        return self.control_duration(MacHeader.SIZE_CTS)

    @property
    def ack_duration(self) -> float:
        """On-air time of a MAC-level ACK frame."""
        return self.control_duration(MacHeader.SIZE_ACK)

    def data_duration(self, frame_size_bytes: int) -> float:
        """On-air time of a DATA frame whose total MAC frame size is given.

        The MAC header and payload are sent at the data rate; the PLCP
        preamble/header always costs :attr:`plcp_overhead`.
        """
        return self.plcp_overhead + transmission_time(frame_size_bytes, self.data_rate)

    # ------------------------------------------------------------------
    # Exchange durations / NAV values
    # ------------------------------------------------------------------
    def nav_for_rts(self, data_frame_size: int) -> float:
        """NAV carried by an RTS: CTS + DATA + ACK + 3 SIFS."""
        return (
            3 * self.sifs
            + self.cts_duration
            + self.data_duration(data_frame_size)
            + self.ack_duration
        )

    def nav_for_cts(self, data_frame_size: int) -> float:
        """NAV carried by a CTS: DATA + ACK + 2 SIFS."""
        return 2 * self.sifs + self.data_duration(data_frame_size) + self.ack_duration

    def nav_for_data(self) -> float:
        """NAV carried by a unicast DATA frame: ACK + SIFS."""
        return self.sifs + self.ack_duration

    def cts_timeout(self) -> float:
        """How long a sender waits for a CTS after finishing its RTS."""
        return self.sifs + self.cts_duration + 2 * self.slot_time

    def ack_timeout(self) -> float:
        """How long a sender waits for a MAC ACK after finishing its DATA."""
        return self.sifs + self.ack_duration + 2 * self.slot_time

    def unicast_exchange_duration(self, data_frame_size: int) -> float:
        """Total channel time of a clean RTS/CTS/DATA/ACK exchange."""
        return (
            self.rts_duration
            + self.cts_duration
            + self.data_duration(data_frame_size)
            + self.ack_duration
            + 3 * self.sifs
        )

    def contention_window(self, attempt: int) -> int:
        """Contention window (slots) for the given 0-based retry attempt."""
        window = (self.cw_min + 1) * (2 ** attempt) - 1
        return min(window, self.cw_max)


def timing_for_bandwidth(bandwidth_mbps: float) -> MacTiming:
    """Convenience constructor for the three bandwidths studied in the paper."""
    return MacTiming(data_rate=bandwidth_mbps * MBPS)
