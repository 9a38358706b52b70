"""Tests for unit conversions."""

from __future__ import annotations

import pytest

from repro.core.units import (
    BITS_PER_BYTE,
    KBPS,
    MBPS,
    bits,
    kbps,
    mbps,
    transmission_time,
)


class TestTransmissionTime:
    def test_known_value_2mbps(self):
        # 1500 bytes at 2 Mbit/s = 6 ms.
        assert transmission_time(1500, 2 * MBPS) == pytest.approx(0.006)

    def test_known_value_1mbps(self):
        assert transmission_time(125, 1 * MBPS) == pytest.approx(0.001)

    def test_scales_inversely_with_rate(self):
        slow = transmission_time(1000, 2 * MBPS)
        fast = transmission_time(1000, 11 * MBPS)
        assert slow / fast == pytest.approx(11.0 / 2.0)

    def test_zero_size(self):
        assert transmission_time(0, MBPS) == 0.0

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            transmission_time(-1, MBPS)

    def test_nonpositive_rate_raises(self):
        with pytest.raises(ValueError):
            transmission_time(100, 0.0)


class TestConversions:
    def test_bits(self):
        assert bits(10) == 10 * BITS_PER_BYTE

    def test_kbps(self):
        assert kbps(250_000.0) == pytest.approx(250.0)

    def test_mbps(self):
        assert mbps(5.5 * MBPS) == pytest.approx(5.5)

    def test_kbps_mbps_consistency(self):
        assert kbps(1 * MBPS) == pytest.approx(1000.0)
        assert KBPS * 1000 == MBPS
