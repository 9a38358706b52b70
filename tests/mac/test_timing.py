"""Tests for 802.11 timing: frame durations, NAVs, contention windows, Table 2."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.units import MBPS, transmission_time
from repro.experiments.paced_udp import four_hop_propagation_delay, table2_propagation_delays
from repro.mac.timing import MacTiming, timing_for_bandwidth
from repro.net.headers import MacHeader


class TestBasicTiming:
    def test_difs_is_sifs_plus_two_slots(self):
        timing = MacTiming()
        assert timing.difs == pytest.approx(timing.sifs + 2 * timing.slot_time)

    def test_control_frames_sent_at_basic_rate(self):
        # RTS: 192 us PLCP + 20 bytes at 1 Mbit/s = 352 us.
        timing = timing_for_bandwidth(11.0)
        assert timing.rts_duration == pytest.approx(352e-6)
        assert timing.cts_duration == pytest.approx(304e-6)
        assert timing.ack_duration == pytest.approx(304e-6)

    def test_control_duration_independent_of_data_rate(self):
        slow = timing_for_bandwidth(2.0)
        fast = timing_for_bandwidth(11.0)
        assert slow.rts_duration == fast.rts_duration

    def test_data_duration_2mbps(self):
        timing = timing_for_bandwidth(2.0)
        # 1534-byte MAC frame at 2 Mbit/s plus 192 us PLCP.
        expected = 192e-6 + 1534 * 8 / (2 * MBPS)
        assert timing.data_duration(1534) == pytest.approx(expected)

    def test_data_duration_decreases_with_bandwidth(self):
        d2 = timing_for_bandwidth(2.0).data_duration(1534)
        d5 = timing_for_bandwidth(5.5).data_duration(1534)
        d11 = timing_for_bandwidth(11.0).data_duration(1534)
        assert d2 > d5 > d11

    def test_plcp_overhead_not_scaled_with_bandwidth(self):
        # Sub-linear goodput growth: the 192 us PLCP stays constant, so an
        # 11 Mbit/s DATA frame is far less than 5.5x faster than a 2 Mbit/s one.
        d2 = timing_for_bandwidth(2.0).data_duration(1534)
        d11 = timing_for_bandwidth(11.0).data_duration(1534)
        assert d2 / d11 < 5.5


class TestNavAndTimeouts:
    def test_rts_nav_covers_whole_exchange(self):
        timing = timing_for_bandwidth(2.0)
        nav = timing.nav_for_rts(1534)
        expected = (3 * timing.sifs + timing.cts_duration
                    + timing.data_duration(1534) + timing.ack_duration)
        assert nav == pytest.approx(expected)

    def test_cts_nav_shorter_than_rts_nav(self):
        timing = timing_for_bandwidth(2.0)
        assert timing.nav_for_cts(1534) < timing.nav_for_rts(1534)

    def test_cts_timeout_exceeds_cts_arrival(self):
        timing = timing_for_bandwidth(2.0)
        assert timing.cts_timeout > timing.sifs + timing.cts_duration

    def test_ack_timeout_exceeds_ack_arrival(self):
        timing = timing_for_bandwidth(2.0)
        assert timing.ack_timeout > timing.sifs + timing.ack_duration

    def test_exchange_duration_sums_components(self):
        timing = timing_for_bandwidth(2.0)
        total = timing.unicast_exchange_duration(1534)
        assert total == pytest.approx(
            timing.rts_duration + timing.cts_duration + timing.ack_duration
            + timing.data_duration(1534) + 3 * timing.sifs
        )


class TestDerivedValuesComputedOnce:
    """The values the MAC reads on every frame are attributes computed when
    the timing is built, to the bit what the formulas give."""

    @pytest.mark.parametrize("bandwidth", [2.0, 5.5, 11.0])
    def test_equal_to_the_formulas(self, bandwidth):
        timing = timing_for_bandwidth(bandwidth)

        def control(size):
            return timing.plcp_overhead + transmission_time(size, timing.basic_rate)

        assert timing.difs == timing.sifs + 2 * timing.slot_time
        assert timing.rts_duration == control(MacHeader.SIZE_RTS)
        assert timing.cts_duration == control(MacHeader.SIZE_CTS)
        assert timing.ack_duration == control(MacHeader.SIZE_ACK)
        assert timing.cts_timeout == (timing.sifs + control(MacHeader.SIZE_CTS)
                                      + 2 * timing.slot_time)
        assert timing.ack_timeout == (timing.sifs + control(MacHeader.SIZE_ACK)
                                      + 2 * timing.slot_time)
        assert timing.data_nav == timing.sifs + control(MacHeader.SIZE_ACK)
        for size in (34, 74, 1534, 1574):
            assert timing.data_duration(size) == (
                timing.plcp_overhead + transmission_time(size, timing.data_rate))

    def test_follow_a_replaced_field(self):
        timing = replace(MacTiming(), sifs=20e-6, slot_time=9e-6)
        assert timing.difs == 20e-6 + 2 * 9e-6
        assert timing.data_nav == 20e-6 + timing.ack_duration

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            MacTiming(data_rate=0.0)
        with pytest.raises(ValueError):
            MacTiming(basic_rate=0.0)


class TestContentionWindow:
    def test_initial_window(self):
        assert MacTiming().contention_window(0) == 31

    def test_doubles_per_attempt(self):
        timing = MacTiming()
        assert timing.contention_window(1) == 63
        assert timing.contention_window(2) == 127

    def test_caps_at_cw_max(self):
        timing = MacTiming()
        assert timing.contention_window(10) == timing.cw_max

    def test_retry_limits_match_paper(self):
        # "seven unsuccessful transmissions for RTS ... four for data packets".
        timing = MacTiming()
        assert timing.short_retry_limit == 7
        assert timing.long_retry_limit == 4


class TestTable2:
    def test_4hop_delay_2mbps_close_to_29ms(self):
        delay = four_hop_propagation_delay(timing_for_bandwidth(2.0))
        assert delay == pytest.approx(29e-3, rel=0.10)

    def test_4hop_delay_decreases_with_bandwidth(self):
        delays = table2_propagation_delays()
        assert delays[2.0] > delays[5.5] > delays[11.0]

    def test_4hop_delay_11mbps_order_of_magnitude(self):
        delay = four_hop_propagation_delay(timing_for_bandwidth(11.0))
        assert 6e-3 < delay < 12e-3

    def test_sublinear_gain(self):
        # 5.5x the bandwidth gives far less than 5.5x lower delay (Table 2:
        # 29 ms -> 8 ms is only a 3.6x improvement).
        delays = table2_propagation_delays()
        assert delays[2.0] / delays[11.0] < 5.5
