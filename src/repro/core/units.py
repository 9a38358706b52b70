"""Physical units and conversion helpers used throughout the simulator.

All simulation times are in seconds (float), all sizes in bytes (int), all
rates in bits per second (float).  These helpers keep the conversions explicit
and readable at call sites, e.g. ``tx_time(1500 * BYTE, 2 * MBPS)``.
"""

from __future__ import annotations

#: One microsecond in seconds.
MICROSECOND = 1e-6
#: One millisecond in seconds.
MILLISECOND = 1e-3
#: One second (identity, for readability).
SECOND = 1.0

#: One bit per second.
BPS = 1.0
#: One kilobit per second.
KBPS = 1e3
#: One megabit per second.
MBPS = 1e6

#: One byte (identity, for readability).
BYTE = 1
#: One kilobyte (1000 bytes, used for traffic accounting).
KILOBYTE = 1000

#: Number of bits in a byte.
BITS_PER_BYTE = 8


def transmission_time(size_bytes: int, rate_bps: float) -> float:
    """Return the time in seconds to serialize ``size_bytes`` at ``rate_bps``.

    Args:
        size_bytes: Payload size in bytes.
        rate_bps: Link rate in bits per second.

    Returns:
        Serialization delay in seconds.

    Raises:
        ValueError: If the rate is not positive or the size is negative.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes}")
    return (size_bytes * BITS_PER_BYTE) / rate_bps


def bits(size_bytes: int) -> int:
    """Return the number of bits in ``size_bytes`` bytes."""
    return size_bytes * BITS_PER_BYTE


def kbps(value_bps: float) -> float:
    """Convert a bits-per-second value to kilobits per second."""
    return value_bps / KBPS


def mbps(value_bps: float) -> float:
    """Convert a bits-per-second value to megabits per second."""
    return value_bps / MBPS
