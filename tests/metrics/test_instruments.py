"""Tests for TimeSeries, the metrics plane's time-series holder."""

from __future__ import annotations

import pytest

from repro.metrics import TimeSeries


class TestTimeSeries:
    def test_record_and_access(self):
        series = TimeSeries("tcp.flow1.cwnd", unit="packets")
        series.record(0.0, 1.0)
        series.record(1.0, 2.0)
        assert len(series) == 2
        assert series.last == 2.0
        assert series.last_time == 1.0
        assert series.times == [0.0, 1.0]

    def test_empty_series(self):
        series = TimeSeries("x")
        assert len(series) == 0
        assert series.last is None
        assert series.last_time is None

    def test_as_dict_round_trips_through_json(self):
        import json

        series = TimeSeries("x", unit="s")
        series.record(0.5, 3.0)
        data = json.loads(json.dumps(series.as_dict()))
        assert data == {"unit": "s", "times": [0.5], "values": [3.0]}

    def test_decimation_bounds_memory(self):
        series = TimeSeries("x", max_samples=64)
        for i in range(10_000):
            series.record(float(i), float(i))
        assert len(series) < 64
        # Samples still span the whole run, oldest to newest region.
        assert series.times[0] == 0.0
        assert series.times[-1] > 9_000.0

    def test_decimation_keeps_uniform_stride(self):
        series = TimeSeries("x", max_samples=8)
        for i in range(32):
            series.record(float(i), float(i))
        deltas = {b - a for a, b in zip(series.times, series.times[1:])}
        assert len(deltas) == 1  # uniform spacing after stride doubling

    def test_max_samples_validation(self):
        with pytest.raises(ValueError):
            TimeSeries("x", max_samples=1)

