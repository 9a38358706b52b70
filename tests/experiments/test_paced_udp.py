"""Tests for the paced UDP analytic helpers (Table 2, Section 4.2)."""

from __future__ import annotations

import pytest

from repro.experiments.paced_udp import (
    data_frame_size,
    default_sweep_intervals,
    default_udp_interval,
    four_hop_propagation_delay,
    single_hop_delay,
    table2_propagation_delays,
)
from repro.mac.timing import timing_for_bandwidth


class TestAnalyticDelays:
    def test_data_frame_size_includes_all_headers(self):
        # 1460 payload + 8 UDP + 20 IP + 34 MAC.
        assert data_frame_size(1460) == 1522

    def test_single_hop_delay_components(self):
        timing = timing_for_bandwidth(2.0)
        delay = single_hop_delay(timing)
        assert delay == pytest.approx(
            timing.difs + timing.unicast_exchange_duration(data_frame_size())
        )

    def test_four_hop_delay_is_four_single_hops(self):
        timing = timing_for_bandwidth(2.0)
        assert four_hop_propagation_delay(timing) == pytest.approx(4 * single_hop_delay(timing))

    def test_table2_2mbps_value(self):
        delays = table2_propagation_delays()
        assert delays[2.0] == pytest.approx(29e-3, rel=0.10)

    def test_table2_ordering(self):
        delays = table2_propagation_delays()
        assert delays[2.0] > delays[5.5] > delays[11.0]

    def test_table2_11mbps_value(self):
        delays = table2_propagation_delays()
        assert 6e-3 < delays[11.0] < 12e-3

    def test_default_interval_larger_than_4hop_delay(self):
        timing = timing_for_bandwidth(2.0)
        assert default_udp_interval(timing) > four_hop_propagation_delay(timing)

    def test_default_interval_scales_with_bandwidth(self):
        slow = default_udp_interval(timing_for_bandwidth(2.0))
        fast = default_udp_interval(timing_for_bandwidth(11.0))
        assert slow > fast


class TestSweepIntervals:
    def test_grid_is_centred_on_the_default_interval(self):
        intervals = default_sweep_intervals(2.0, points=7, spread=0.4)
        assert intervals[3] == pytest.approx(default_udp_interval(timing_for_bandwidth(2.0)))

    def test_ends_sit_at_plus_minus_spread(self):
        centre = default_udp_interval(timing_for_bandwidth(5.5))
        intervals = default_sweep_intervals(5.5, points=5, spread=0.3)
        assert intervals[0] == pytest.approx(0.7 * centre)
        assert intervals[-1] == pytest.approx(1.3 * centre)
        assert intervals == sorted(intervals)

    @pytest.mark.parametrize("points", [0, 1])
    def test_fewer_than_two_points_is_the_centre(self, points):
        centre = default_udp_interval(timing_for_bandwidth(2.0))
        assert default_sweep_intervals(2.0, points=points) == [centre]

    def test_figure10_grid(self):
        # The x values of Figure 10's row in benchmarks/bench_figures.py.
        intervals = default_sweep_intervals(2.0, points=7, spread=0.4)
        assert [round(t * 1000, 1) for t in intervals] == [
            23.7, 29.0, 34.3, 39.5, 44.8, 50.1, 55.3]
