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

from repro.core.units import BITS_PER_BYTE, MBPS, MICROSECOND, transmission_time
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

    The MAC reads the values below on every frame, so they are computed
    once, when the timing is built, and stored as plain attributes:

    * ``difs`` — SIFS + 2 slot times.
    * ``rts_duration`` / ``cts_duration`` / ``ack_duration`` — on-air time of
      each control frame at the basic rate (:meth:`control_duration`).
    * ``cts_timeout`` — how long a sender waits for a CTS after finishing its
      RTS: SIFS + CTS + 2 slots.
    * ``ack_timeout`` — how long a sender waits for a MAC ACK after finishing
      its DATA: SIFS + ACK + 2 slots.
    * ``data_nav`` — the NAV a unicast DATA frame carries: SIFS + ACK.
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

    def __post_init__(self) -> None:
        if self.data_rate <= 0:
            raise ValueError(f"data_rate must be positive, got {self.data_rate}")
        derive = object.__setattr__       # the dataclass is frozen
        derive(self, "difs", self.sifs + 2 * self.slot_time)
        derive(self, "rts_duration", self.control_duration(MacHeader.SIZE_RTS))
        derive(self, "cts_duration", self.control_duration(MacHeader.SIZE_CTS))
        derive(self, "ack_duration", self.control_duration(MacHeader.SIZE_ACK))
        derive(self, "cts_timeout", self.sifs + self.cts_duration + 2 * self.slot_time)
        derive(self, "ack_timeout", self.sifs + self.ack_duration + 2 * self.slot_time)
        derive(self, "data_nav", self.sifs + self.ack_duration)

    # ------------------------------------------------------------------
    # Frame durations
    # ------------------------------------------------------------------
    def control_duration(self, size_bytes: int) -> float:
        """On-air time of a control frame of ``size_bytes`` at the basic rate."""
        return self.plcp_overhead + transmission_time(size_bytes, self.basic_rate)

    def data_duration(self, frame_size_bytes: int) -> float:
        """On-air time of a DATA frame whose total MAC frame size is given.

        The MAC header and payload are sent at the data rate; the PLCP
        preamble/header always costs :attr:`plcp_overhead`.  (The arithmetic
        of :func:`~repro.core.units.transmission_time`, whose rate check the
        constructor makes once.)
        """
        return self.plcp_overhead + (frame_size_bytes * BITS_PER_BYTE) / self.data_rate

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
