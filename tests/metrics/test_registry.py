"""Tests for the MetricsRegistry: naming, probes, sampling, null object."""

from __future__ import annotations

from fnmatch import fnmatchcase

import pytest

from repro.core.engine import Simulator
from repro.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    StatsRecord,
    TimeSeries,
)


class Drops(StatsRecord):
    __slots__ = {"drops": "Frames dropped.", "rts_tx": "RTS frames sent."}


class TestRecordsAndValues:
    def test_record_fields_read_under_its_prefix(self):
        registry = MetricsRegistry()
        record = Drops(registry, prefix="mac.node0")
        record.drops += 2
        assert registry.snapshot() == {"mac.node0.drops": 2, "mac.node0.rts_tx": 0}

    def test_later_record_replaces_earlier_under_same_prefix(self):
        registry = MetricsRegistry()
        Drops(registry, prefix="mac.node0").drops = 4
        Drops(registry, prefix="mac.node0")
        assert registry.snapshot()["mac.node0.drops"] == 0

    def test_set_overwrites(self):
        registry = MetricsRegistry()
        registry.set("core.events_processed", 10)
        registry.set("core.events_processed", 12)
        assert registry.snapshot() == {"core.events_processed": 12}

    def test_timeseries_is_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.timeseries("x") is registry.timeseries("x")

    def test_timeseries_inherits_sample_budget(self):
        registry = MetricsRegistry(enabled=True, max_series_samples=16)
        series = registry.timeseries("x")
        assert series.max_samples == 16


class TestSnapshotAndTotal:
    def test_snapshot_covers_records_and_values_only(self):
        registry = MetricsRegistry(enabled=True)
        Drops(registry, prefix="b").drops = 3
        registry.set("a", 1.5)
        registry.timeseries("c").record(0.0, 9.0)
        snapshot = registry.snapshot()
        assert snapshot == {"a": 1.5, "b.drops": 3, "b.rts_tx": 0}
        assert list(snapshot) == sorted(snapshot)

    def test_total_sums_matching_names(self):
        registry = MetricsRegistry()
        Drops(registry, prefix="mac.node0").drops = 2
        node1 = Drops(registry, prefix="mac.node1")
        node1.drops = 3
        node1.rts_tx = 100
        registry.set("mac.node2.drops", 1)
        assert registry.total("mac.node*.drops") == 6
        assert registry.total("nothing.*") == 0

    def test_totals_match_every_name_against_every_pattern(self):
        """One pass over the records, the same sums as matching each full
        name: ``*`` spans dots, a wildcard may sit in the field part, and a
        pattern without a dot names nothing here."""
        registry = MetricsRegistry()
        Drops(registry, prefix="mac.node0").drops = 2
        node1 = Drops(registry, prefix="mac.node1")
        node1.drops, node1.rts_tx = 3, 100
        Drops(registry, prefix="mac.node1.sub").drops = 7
        registry.set("mac.node2.drops", 1)
        patterns = ["mac.node*.drops", "mac.node1.*", "*", "mac.node?.rts_tx",
                    "mac.*.d[r]ops", "nothing.*", "drops"]
        by_name = [sum(value for name, value in registry.snapshot().items()
                       if fnmatchcase(name, pattern)) for pattern in patterns]
        assert by_name == [13, 110, 113, 100, 13, 0, 0]
        assert registry.totals(*patterns) == by_name


class TestProbesAndSampling:
    def test_probe_sampled_periodically(self):
        sim = Simulator()
        registry = MetricsRegistry(enabled=True)
        state = {"value": 0}
        registry.add_probe("net.queue", lambda: state["value"])
        registry.start_sampling(sim, interval=1.0)
        state["value"] = 7
        sim.run(until=2.5)
        series = registry.timeseries("net.queue")
        # Immediate t=0 sample plus ticks at t=1 and t=2.
        assert series.times == [0.0, 1.0, 2.0]
        assert series.values == [0.0, 7.0, 7.0]

    def test_sampling_noop_when_disabled(self):
        sim = Simulator()
        registry = MetricsRegistry(enabled=False)
        assert registry.add_probe("x", lambda: 1.0) is None
        registry.start_sampling(sim, interval=0.1)
        assert sim.pending_events == 0
        assert registry.samples_taken == 0

    def test_start_sampling_is_idempotent(self):
        sim = Simulator()
        registry = MetricsRegistry(enabled=True)
        registry.start_sampling(sim, interval=1.0)
        registry.start_sampling(sim, interval=1.0)
        sim.run(until=0.5)
        assert registry.samples_taken == 1  # just the immediate baseline

    def test_invalid_interval_rejected(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            registry.start_sampling(Simulator(), interval=0.0)

    def test_timeseries_data_export(self):
        registry = MetricsRegistry(enabled=True)
        registry.timeseries("tcp.flow1.cwnd", unit="packets").record(0.0, 2.0)
        registry.timeseries("mac.node0.queue_len").record(0.0, 1.0)
        data = registry.timeseries_data("tcp.*")
        assert list(data) == ["tcp.flow1.cwnd"]
        assert data["tcp.flow1.cwnd"]["values"] == [2.0]


class TestNullRegistry:
    def test_records_count_but_are_not_retained(self):
        record = Drops(NULL_METRICS, prefix="mac")
        record.drops += 1
        NULL_METRICS.set("core.events_processed", 5)
        assert record.drops == 1
        assert NULL_METRICS.snapshot() == {}

    def test_same_name_gives_independent_series(self):
        a = NULL_METRICS.timeseries("x")
        b = NULL_METRICS.timeseries("x")
        assert a is not b
        a.record(0.0, 1.0)
        assert len(b) == 0

    def test_enabled_is_pinned_false(self):
        NULL_METRICS.enabled = True
        assert NULL_METRICS.enabled is False

    def test_probe_and_sampling_are_noops(self):
        sim = Simulator()
        assert NULL_METRICS.add_probe("x", lambda: 1.0) is None
        NULL_METRICS.start_sampling(sim, interval=0.1)
        assert sim.pending_events == 0

    def test_types(self):
        assert isinstance(NULL_METRICS.timeseries("c"), TimeSeries)
        assert isinstance(NULL_METRICS, NullMetricsRegistry)
