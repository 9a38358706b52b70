"""Result containers and table formatting for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.statistics import ConfidenceInterval, jain_fairness_index
from repro.core.units import kbps
from repro.phy.energy import EnergyReport


@dataclass
class FlowResult:
    """Measures for one flow at the end of a scenario run.

    Attributes:
        flow_id: 1-based flow index (FTP *i* in the paper's figures).
        source: Source node id.
        destination: Destination node id.
        delivered_packets: In-order packets delivered to the receiver.
        goodput_bps: Goodput in bit/s (batch-means estimate when enough
            batches completed, overall rate otherwise).
        goodput_ci: Confidence interval of the per-batch goodput (bit/s).
        retransmissions: Transport-layer retransmissions at the sender.
        retransmissions_per_packet: Retransmissions per delivered packet.
        timeouts: Sender retransmission timeouts.
        average_window: Time-averaged congestion window (packets); 0 for UDP.
        variant: Label of the transport variant *this* flow ran (flows of one
            scenario may differ under the Workload API); empty for results
            deserialized from pre-workload JSON.
        label: The flow's :attr:`~repro.experiments.workload.FlowSpec.label`,
            if one was set.
    """

    flow_id: int
    source: int
    destination: int
    delivered_packets: int
    goodput_bps: float
    goodput_ci: Optional[ConfidenceInterval]
    retransmissions: int
    retransmissions_per_packet: float
    timeouts: int
    average_window: float
    variant: str = ""
    label: Optional[str] = None

    @property
    def goodput_kbps(self) -> float:
        """Goodput in kbit/s (the unit used in the paper's figures)."""
        return kbps(self.goodput_bps)

    def to_dict(self) -> dict:
        """JSON-serializable representation (see :meth:`from_dict`)."""
        return {
            "flow_id": self.flow_id,
            "source": self.source,
            "destination": self.destination,
            "delivered_packets": self.delivered_packets,
            "goodput_bps": self.goodput_bps,
            "goodput_ci": self.goodput_ci.to_dict() if self.goodput_ci else None,
            "retransmissions": self.retransmissions,
            "retransmissions_per_packet": self.retransmissions_per_packet,
            "timeouts": self.timeouts,
            "average_window": self.average_window,
            "variant": self.variant,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FlowResult":
        """Rebuild a :class:`FlowResult` from :meth:`to_dict` output."""
        ci = data.get("goodput_ci")
        return cls(
            flow_id=data["flow_id"],
            source=data["source"],
            destination=data["destination"],
            delivered_packets=data["delivered_packets"],
            goodput_bps=data["goodput_bps"],
            goodput_ci=ConfidenceInterval.from_dict(ci) if ci else None,
            retransmissions=data["retransmissions"],
            retransmissions_per_packet=data["retransmissions_per_packet"],
            timeouts=data["timeouts"],
            average_window=data["average_window"],
            variant=data.get("variant", ""),
            label=data.get("label"),
        )


@dataclass
class ScenarioResult:
    """Aggregate measures for one scenario run.

    Attributes (beyond the headline scalars):
        metrics: Flat snapshot of every scalar metric at the end of the
            run, keyed by hierarchical name
            (``mac.node3.data_dropped_retry``).  Populated for every run; see
            :meth:`metric_total` for wildcard aggregation.
        timeseries: Time-series payloads (``{name: {unit, times, values}}``)
            collected while the metrics plane was enabled
            (``ScenarioConfig.metrics=True``); ``None`` otherwise.
    """

    name: str
    variant: str
    bandwidth_mbps: float
    simulated_time: float
    delivered_packets: int
    flows: List[FlowResult] = field(default_factory=list)
    false_route_failures: int = 0
    link_layer_drop_probability: float = 0.0
    mac_frames_sent: int = 0
    reached_packet_target: bool = True
    energy: Optional[EnergyReport] = None
    metrics: Optional[Dict[str, float]] = None
    timeseries: Optional[Dict[str, dict]] = None

    @property
    def aggregate_goodput_bps(self) -> float:
        """Sum of all per-flow goodputs in bit/s."""
        return sum(flow.goodput_bps for flow in self.flows)

    @property
    def aggregate_goodput_kbps(self) -> float:
        """Aggregate goodput in kbit/s."""
        return kbps(self.aggregate_goodput_bps)

    @property
    def fairness_index(self) -> float:
        """Jain's fairness index over the per-flow goodputs."""
        return jain_fairness_index([flow.goodput_bps for flow in self.flows])

    @property
    def average_retransmissions_per_packet(self) -> float:
        """Mean over flows of retransmissions per delivered packet."""
        if not self.flows:
            return 0.0
        return sum(f.retransmissions_per_packet for f in self.flows) / len(self.flows)

    @property
    def average_window(self) -> float:
        """Mean over flows of the time-averaged congestion window."""
        if not self.flows:
            return 0.0
        return sum(f.average_window for f in self.flows) / len(self.flows)

    def flow(self, flow_id: int) -> FlowResult:
        """Return the result of flow ``flow_id`` (1-based)."""
        for flow in self.flows:
            if flow.flow_id == flow_id:
                return flow
        raise KeyError(f"no flow {flow_id} in scenario {self.name}")

    def flow_by_label(self, label: str) -> FlowResult:
        """Return the result of the flow whose spec carried ``label``."""
        for flow in self.flows:
            if flow.label == label:
                return flow
        raise KeyError(f"no flow labelled {label!r} in scenario {self.name}")

    def flows_for_variant(self, variant_label: str) -> List[FlowResult]:
        """All per-flow results that ran the given transport variant label."""
        return [flow for flow in self.flows if flow.variant == variant_label]

    # ------------------------------------------------------------------
    # Metrics access
    # ------------------------------------------------------------------
    def metric_total(self, pattern: str) -> float:
        """Sum of the snapshot values whose names match ``pattern``.

        ``pattern`` uses shell-style wildcards over the hierarchical
        metric name, e.g. ``metric_total("mac.node*.data_dropped_retry")``
        for the network-wide retry-drop count or
        ``metric_total("route.node*.rerrs_sent")`` for total RERRs.  Returns
        0.0 when no snapshot was collected or nothing matches.
        """
        if not self.metrics:
            return 0.0
        return sum(value for name, value in self.metrics.items()
                   if fnmatchcase(name, pattern))

    def series(self, name: str) -> Tuple[List[float], List[float]]:
        """The ``(times, values)`` of one exported time series.

        Raises:
            KeyError: If no time series were collected or the name is absent.
        """
        if not self.timeseries or name not in self.timeseries:
            raise KeyError(f"no time series {name!r} in scenario {self.name}")
        data = self.timeseries[name]
        return list(data["times"]), list(data["values"])

    def to_dict(self) -> dict:
        """JSON-serializable representation (see :meth:`from_dict`).

        Floats survive a JSON round trip exactly, so
        ``ScenarioResult.from_dict(json.loads(json.dumps(r.to_dict()))) == r``.
        """
        return {
            "name": self.name,
            "variant": self.variant,
            "bandwidth_mbps": self.bandwidth_mbps,
            "simulated_time": self.simulated_time,
            "delivered_packets": self.delivered_packets,
            "flows": [flow.to_dict() for flow in self.flows],
            "false_route_failures": self.false_route_failures,
            "link_layer_drop_probability": self.link_layer_drop_probability,
            "mac_frames_sent": self.mac_frames_sent,
            "reached_packet_target": self.reached_packet_target,
            "energy": self.energy.to_dict() if self.energy else None,
            "metrics": dict(self.metrics) if self.metrics is not None else None,
            "timeseries": (
                {name: dict(series) for name, series in self.timeseries.items()}
                if self.timeseries is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioResult":
        """Rebuild a :class:`ScenarioResult` from :meth:`to_dict` output."""
        energy = data.get("energy")
        return cls(
            name=data["name"],
            variant=data["variant"],
            bandwidth_mbps=data["bandwidth_mbps"],
            simulated_time=data["simulated_time"],
            delivered_packets=data["delivered_packets"],
            flows=[FlowResult.from_dict(f) for f in data.get("flows", [])],
            false_route_failures=data["false_route_failures"],
            link_layer_drop_probability=data["link_layer_drop_probability"],
            mac_frames_sent=data["mac_frames_sent"],
            reached_packet_target=data["reached_packet_target"],
            energy=EnergyReport.from_dict(energy) if energy else None,
            metrics=data.get("metrics"),
            timeseries=data.get("timeseries"),
        )


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple fixed-width text table (used by the benchmark scripts)."""
    columns = len(headers)
    normalized_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in normalized_rows:
        for index in range(min(columns, len(row))):
            widths[index] = max(widths[index], len(row[index]))
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(columns)),
    ]
    for row in normalized_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        # Four significant digits keeps small probabilities (0.0048) and large
        # goodputs (1234.5 kbit/s) readable in the same column.
        return f"{value:.4g}"
    return str(value)
