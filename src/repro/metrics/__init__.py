"""Unified metrics and time-series telemetry for the whole stack.

Every layer keeps its counts in a slotted stats record (:class:`StatsRecord`)
registered once in the scenario's :class:`MetricsRegistry` under a dotted
prefix (``phy.node2``), so its fields read as ``phy.node2.frames_sent``.
Values known only at the end of a run (energy, event counts) are written with
:meth:`MetricsRegistry.set`, and time-evolving quantities are
:class:`TimeSeries` (``tcp.flow1.cwnd``).  The experiment harness harvests
scalars with :meth:`MetricsRegistry.snapshot`/:meth:`MetricsRegistry.total`
and, when the registry is enabled, exports time series through
:class:`repro.experiments.results.ScenarioResult`.

See ``docs/metrics.md`` for the catalog and naming scheme.
"""

from repro.metrics.registry import (
    DEFAULT_MAX_SAMPLES,
    DEFAULT_SAMPLE_INTERVAL,
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    StatsRecord,
    TimeSeries,
)

__all__ = [
    "StatsRecord",
    "TimeSeries",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_MAX_SAMPLES",
    "DEFAULT_SAMPLE_INTERVAL",
]
