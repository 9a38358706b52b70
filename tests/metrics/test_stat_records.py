"""The per-layer stats records.

Pins the contracts of the stats records: (1) each record is a slotted object
whose fields start at ``0`` (``0.0`` for the radio's airtimes) and are
written in place by the owning layer, (2) the same numbers are visible
through the registry under ``<prefix>.<field>``, with their types, and
(3) a record registered under a taken prefix replaces the earlier one,
and (4) writing a field never warns and no record takes a field it does
not declare.
"""

from __future__ import annotations

import warnings

import pytest

from repro.app.base import AppStats
from repro.link.gateway import GatewayRoutingStats
from repro.link.wired import BusStats, WiredStats
from repro.mac.stats import MacStats
from repro.metrics import MetricsRegistry
from repro.mobility.base import MobilityStats
from repro.phy.radio import RadioStats
from repro.routing.base import RoutingStats
from repro.transport.stats import FlowCounters, FlowStats

#: Every record class with the fields it exports as floats; all others are
#: ints.
RECORDS = {
    "radio": (RadioStats, {"time_transmitting", "time_receiving"}),
    "mac": (MacStats, set()),
    "routing": (RoutingStats, set()),
    "gateway-routing": (GatewayRoutingStats, set()),
    "flow-counters": (FlowCounters, set()),
    "flow": (FlowStats, set()),
    "mobility": (MobilityStats, set()),
    "wired": (WiredStats, set()),
    "bus": (BusStats, {"utilization"}),
    "app": (AppStats, {"started_at"}),
}


def build(cls, registry):
    if cls is FlowStats:
        return FlowStats(flow_id=1, registry=registry, prefix="rec")
    return cls(registry, prefix="rec")


class TestEveryRecord:
    @pytest.mark.parametrize("kind", RECORDS)
    def test_fresh_record_is_zero_with_its_exported_type(self, kind):
        cls, float_fields = RECORDS[kind]
        registry = MetricsRegistry()
        build(cls, registry)
        snapshot = registry.snapshot()
        assert snapshot == {f"rec.{field}": 0 for field in cls.fields}
        for field in cls.fields:
            expected = float if field in float_fields else int
            assert type(snapshot[f"rec.{field}"]) is expected, field

    @pytest.mark.parametrize("kind", RECORDS)
    def test_every_field_write_lands_without_a_warning(self, kind):
        cls, _ = RECORDS[kind]
        registry = MetricsRegistry()
        stats = build(cls, registry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value, field in enumerate(cls.fields, start=1):
                setattr(stats, field, getattr(stats, field) + value)
        assert registry.snapshot() == {
            f"rec.{field}": value
            for value, field in enumerate(cls.fields, start=1)}

    @pytest.mark.parametrize("kind", [kind for kind in RECORDS if kind != "flow"])
    def test_undeclared_field_rejected(self, kind):
        cls, _ = RECORDS[kind]
        with pytest.raises(AttributeError):
            build(cls, MetricsRegistry()).not_a_field = 1


class TestMacStatsRecord:
    def test_counters_visible_through_registry(self):
        registry = MetricsRegistry()
        stats = MacStats(registry, prefix="mac.node3")
        stats.rts_tx += 2
        stats.data_dropped_retry += 1
        assert registry.snapshot()["mac.node3.rts_tx"] == 2
        assert registry.total("mac.node*.data_dropped_retry") == 1

    def test_drop_probability(self):
        stats = MacStats()
        stats.data_tx_success = 8
        stats.data_dropped_retry = 2
        assert stats.drop_probability == pytest.approx(0.2)

    def test_unknown_field_rejected(self):
        with pytest.raises(AttributeError):
            MacStats().not_a_field = 1

    def test_two_nodes_do_not_collide(self):
        registry = MetricsRegistry()
        a = MacStats(registry, prefix="mac.node0")
        b = MacStats(registry, prefix="mac.node1")
        a.rts_tx = 5
        assert b.rts_tx == 0
        assert registry.total("mac.node*.rts_tx") == 5

    def test_writes_never_warn(self):
        stats = MacStats()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats.rts_tx += 1
        assert stats.rts_tx == 1


class TestFlowStatsRecord:
    def test_counters_visible_through_registry(self):
        registry = MetricsRegistry()
        stats = FlowStats(flow_id=1, batch_size=10, registry=registry)
        stats.retransmissions += 2
        stats.record_delivery(now=1.0, payload_bytes=1460)
        snapshot = registry.snapshot()
        assert snapshot["tcp.flow1.packets_delivered"] == 1
        assert snapshot["tcp.flow1.bytes_delivered"] == 1460
        assert snapshot["tcp.flow1.retransmissions"] == 2

    def test_only_counters_are_published(self):
        registry = MetricsRegistry()
        stats = FlowStats(flow_id=1, registry=registry)
        stats.record_delivery(now=1.0, payload_bytes=1460)
        assert list(registry.snapshot()) == sorted(
            f"tcp.flow1.{field}" for field in FlowStats.fields)

    def test_series_disabled_by_default(self):
        registry = MetricsRegistry(enabled=False)
        stats = FlowStats(flow_id=1, registry=registry)
        assert not stats.series_enabled
        stats.record_window(0.0, 2.0)
        stats.record_rtt(0.0, 0.1)  # harmless no-op
        assert registry.timeseries_data() == {}

    def test_cwnd_and_rtt_series_when_enabled(self):
        registry = MetricsRegistry(enabled=True)
        stats = FlowStats(flow_id=1, registry=registry)
        assert stats.series_enabled
        stats.record_window(0.0, 1.0)
        stats.record_window(0.5, 2.0)
        stats.record_rtt(0.6, 0.25)
        series = registry.timeseries_data()
        assert series["tcp.flow1.cwnd"]["values"] == [1.0, 2.0]
        assert series["tcp.flow1.rtt"]["values"] == [0.25]
        # The time-weighted average still works alongside the series.
        assert stats.average_window(now=1.0) == pytest.approx(1.5)

    def test_stand_alone_instances_stay_independent(self):
        a = FlowStats(flow_id=1)
        b = FlowStats(flow_id=1)
        a.packets_sent = 3
        assert b.packets_sent == 0


class TestRoutingStatsRecord:
    def test_new_discovery_and_rerr_counters(self):
        registry = MetricsRegistry()
        stats = RoutingStats(registry, prefix="route.node2")
        stats.route_discoveries += 1
        stats.rerrs_sent += 2
        snapshot = registry.snapshot()
        assert snapshot["route.node2.route_discoveries"] == 1
        assert snapshot["route.node2.rerrs_sent"] == 2

    def test_false_route_failures_total(self):
        registry = MetricsRegistry()
        for node in range(3):
            stats = RoutingStats(registry, prefix=f"route.node{node}")
            stats.false_route_failures = node
        assert registry.total("route.node*.false_route_failures") == 3

    def test_gateway_record_replaces_the_node_record(self):
        registry = MetricsRegistry()
        discarded = RoutingStats(registry, prefix="route.node0")
        gateway = GatewayRoutingStats(registry, prefix="route.node0")
        discarded.packets_forwarded = 5
        gateway.unknown_subnet_drops += 1
        snapshot = registry.snapshot()
        assert snapshot["route.node0.packets_forwarded"] == 0
        assert snapshot["route.node0.unknown_subnet_drops"] == 1
        assert GatewayRoutingStats.fields == (*RoutingStats.fields,
                                              "unknown_subnet_drops")


class TestRadioStatsRecord:
    def test_counters_and_airtimes(self):
        registry = MetricsRegistry()
        stats = RadioStats(registry, prefix="phy.node0")
        stats.frames_sent += 1
        stats.time_transmitting += 0.002
        snapshot = registry.snapshot()
        assert snapshot["phy.node0.frames_sent"] == 1
        assert snapshot["phy.node0.time_transmitting"] == pytest.approx(0.002)

    def test_value_types(self):
        """Counts start at int 0 and airtimes at float 0.0, as they are
        exported."""
        registry = MetricsRegistry()
        RadioStats(registry, prefix="phy.node0")
        snapshot = registry.snapshot()
        assert type(snapshot["phy.node0.frames_sent"]) is int
        assert type(snapshot["phy.node0.time_receiving"]) is float
        assert type(snapshot["phy.node0.time_transmitting"]) is float


class TestMobilityStatsRecord:
    def test_churn_counters(self):
        registry = MetricsRegistry()
        stats = MobilityStats(registry, prefix="mobility")
        stats.links_broken += 2
        stats.links_formed += 1
        snapshot = registry.snapshot()
        assert snapshot["mobility.links_broken"] == 2
        assert snapshot["mobility.links_formed"] == 1


class TestLinkAndAppRecords:
    def test_wired_records_start_at_zero(self):
        registry = MetricsRegistry()
        WiredStats(registry, prefix="link.wired.node1")
        BusStats(registry, prefix="link.wired.bus0")
        snapshot = registry.snapshot()
        assert snapshot["link.wired.node1.frames_sent"] == 0
        assert snapshot["link.wired.bus0.collisions"] == 0
        assert type(snapshot["link.wired.bus0.utilization"]) is float

    def test_app_record(self):
        registry = MetricsRegistry()
        AppStats(registry, prefix="app.flow1")
        assert registry.snapshot() == {"app.flow1.started_at": 0.0,
                                       "app.flow1.starts": 0}
