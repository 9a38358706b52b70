"""Per-flow transport statistics.

These objects are shared between a sender and its sink and are what the
experiment harness reads to produce the paper's measures: goodput (bytes
delivered at the sink per unit time, via batch means), transport-layer
retransmissions, and the time-averaged congestion window.

The scalar counts live in :class:`FlowCounters`, a slotted record registered
once under ``tcp.flow<N>``, so they read as ``tcp.flow<N>.<field>``; only the
flow's sender and sink update them.  When the scenario's
:class:`~repro.metrics.registry.MetricsRegistry` is enabled the flow also
feeds two event-driven time series, ``tcp.flow<N>.cwnd`` (sampled on every
congestion-window change) and ``tcp.flow<N>.rtt`` (sampled per RTT
measurement), which reproduce the paper's window-evolution figures.
"""

from __future__ import annotations

from typing import Optional

from repro.core.statistics import BatchMeans, ConfidenceInterval, TimeWeightedAverage
from repro.metrics import MetricsRegistry, NULL_METRICS, StatsRecord


class FlowCounters(StatsRecord):
    """The published counters of one flow."""

    __slots__ = {
        "packets_sent": "Data packets sent (including retransmissions).",
        "packets_delivered": "In-order packets delivered at the sink.",
        "bytes_delivered": "In-order payload bytes delivered at the sink.",
        "retransmissions": "Transport-layer retransmissions at the sender.",
        "timeouts": "Retransmission timeouts at the sender.",
        "acks_received": "ACKs processed by the sender.",
        "acks_sent": "ACKs generated by the sink.",
    }


class FlowStats(FlowCounters):
    """Statistics for one end-to-end flow: the counters of
    :class:`FlowCounters` plus the state behind the derived measures.

    Args:
        flow_id: Integer flow identifier.
        batch_size: Number of delivered packets per batch-means batch.
        registry: Metrics registry the counters and series register in;
            stand-alone instances publish nothing.
        prefix: Name prefix (default ``tcp.flow<flow_id>``).

    Attributes:
        first_delivery_time: Time of the first in-order delivery.
        last_delivery_time: Time of the most recent in-order delivery.
        series_enabled: True when the cwnd/RTT time series are being
            collected (callers may guard per-sample work on this flag).
    """

    def __init__(
        self,
        flow_id: int,
        batch_size: int = 1000,
        registry: MetricsRegistry = NULL_METRICS,
        prefix: Optional[str] = None,
    ) -> None:
        prefix = prefix if prefix is not None else f"tcp.flow{flow_id}"
        super().__init__(registry, prefix)
        self.flow_id = flow_id
        self.batch_size = batch_size
        self.first_delivery_time: Optional[float] = None
        self.last_delivery_time: Optional[float] = None
        self.window_average = TimeWeightedAverage()
        self._batches = BatchMeans(batch_size=batch_size, discard_batches=1)
        self.series_enabled = registry.enabled
        if registry.enabled:
            self._cwnd_series = registry.timeseries(
                f"{prefix}.cwnd", unit="packets",
                description="Congestion window, sampled on every change.")
            self._rtt_series = registry.timeseries(
                f"{prefix}.rtt", unit="s",
                description="Round-trip-time samples as measured by the sender.")
        else:
            self._cwnd_series = None
            self._rtt_series = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_delivery(self, now: float, payload_bytes: int, packets: int = 1) -> None:
        """Record in-order delivery of ``packets`` packets at the sink."""
        if self.first_delivery_time is None:
            self.first_delivery_time = now
        self.last_delivery_time = now
        self.packets_delivered += packets
        self.bytes_delivered += payload_bytes
        self._batches.record_delivery(now, float(self.bytes_delivered), packets)

    def record_window(self, now: float, window_packets: float) -> None:
        """Record a congestion-window change for time averaging (and, when
        the metrics plane is enabled, into the ``cwnd`` time series)."""
        self.window_average.record(now, window_packets)
        if self._cwnd_series is not None:
            self._cwnd_series.record(now, window_packets)

    def record_rtt(self, now: float, sample: float) -> None:
        """Record one RTT measurement into the ``rtt`` time series.

        Hot-path callers should guard on :attr:`series_enabled`; calling
        with series collection disabled is a harmless no-op.
        """
        if self._rtt_series is not None:
            self._rtt_series.record(now, sample)

    # ------------------------------------------------------------------
    # Derived measures
    # ------------------------------------------------------------------
    def goodput_bps(self, now: float, warmup: float = 0.0) -> float:
        """Overall goodput in bit/s between ``warmup`` and ``now``."""
        duration = now - warmup
        if duration <= 0:
            return 0.0
        return self.bytes_delivered * 8.0 / duration

    def batch_goodput(self) -> ConfidenceInterval:
        """Batch-means goodput estimate (bytes/s) with its confidence interval."""
        return self._batches.rate_interval()

    def retransmissions_per_delivered_packet(self) -> float:
        """Average number of transport retransmissions per delivered packet."""
        if self.packets_delivered == 0:
            return 0.0
        return self.retransmissions / self.packets_delivered

    def average_window(self, now: float) -> float:
        """Time-weighted average congestion window in packets."""
        self.window_average.finalize(now)
        return self.window_average.average

    @property
    def completed_batches(self) -> int:
        """Number of completed batch-means batches."""
        return self._batches.completed_batches
