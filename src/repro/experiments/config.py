"""Scenario configuration for the experiment harness.

A :class:`ScenarioConfig` bundles every knob a paper experiment varies:
transport variant, 802.11 bandwidth, Vegas α, ACK thinning, routing protocol,
and the run length (packet target and time limit).  The defaults reproduce
the paper's setup at a scaled-down run length so the whole harness finishes on
a laptop; set ``packet_target=110_000`` for full paper-scale runs (the runner
splits every run into the paper's 11 batch-means batches).

Under the Workload API (:mod:`repro.experiments.workload`) every flow of a
scenario shares this config; a flow's ``FlowSpec`` may name another
transport variant and nothing else of it.

The transport variant is its registry key (``"vegas-at"``; see
:data:`repro.transport.registry.TRANSPORTS`), held as a ``str``.  A
variant-specific knob is a plain field that only that variant's sender reads:
``vegas_alpha`` for the Vegas variants, ``newreno_max_cwnd`` for the two
optimal-window variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.mobility.registry import MOBILITY_MODELS
from repro.transport.ack_thinning import AckThinningPolicy
from repro.transport.registry import transport_key
from repro.transport.tcp_base import TcpConfig
from repro.transport.vegas import VegasParameters


@dataclass(frozen=True)
class ScenarioConfig:
    """All parameters of one simulation scenario.

    Attributes:
        variant: Scenario-wide default transport variant: its registry key
            (``"vegas-at"``), normalised by
            :func:`~repro.transport.registry.transport_key`.  Every flow runs
            this variant unless its
            :class:`~repro.experiments.workload.FlowSpec` overrides it
            (mixed-transport workloads; see ``docs/workloads.md``).
        bandwidth_mbps: 802.11 data rate (2, 5.5 or 11 in the paper).
        vegas_alpha: Vegas α (= β = γ) threshold in packets.
        newreno_max_cwnd: Window clamp of the two "optimal window"
            variants, the only senders that read it (MaxWin = 3, the optimal
            NewReno window on the paper's 7-hop chain; Fu et al.).
        udp_interval: Inter-packet time *t* for paced UDP; None lets the
            harness use the analytically derived 4-hop propagation delay as a
            starting point (Section 4.2).
        packet_target: Total in-order packets to deliver (across all flows)
            before the run stops.  The paper uses 110 000.
        max_sim_time: Hard wall on simulated seconds, in case a scenario
            starves and never reaches the packet target.
        seed: Master RNG seed.
        routing: ``"aodv"`` (paper) or ``"static"`` (ablation baseline).
        tcp: TCP parameters (Table 1 defaults).
        ack_thinning: ACK-thinning thresholds (S1/S2/S3 and the 100 ms timer).
        capture_threshold: PHY capture threshold (power ratio); 10 matches
            ns-2's ``CPThresh_``.  A very large value disables capture (every
            overlapping signal collides) and is used by the ablation bench.
        mobility: Mobility model name resolved through
            :mod:`repro.mobility.registry` (``"static"``, the default, keeps
            the paper's fixed topologies; ``"random-waypoint"`` /
            ``"random-walk"`` move the nodes).
        mobility_speed: Speed knob in m/s (meaning is model-specific: maximum
            leg speed for random waypoint, constant speed for random walk);
            ``None`` uses the registered profile's default.
        mobility_pause: Pause knob in seconds (waypoint pause time for random
            waypoint, heading-redraw interval for random walk); ``None`` uses
            the profile's default.
        mobility_update_interval: Seconds between periodic position updates.
        metrics: Enable the time-series metrics plane: per-flow cwnd/RTT
            series, periodic probe sampling (queue occupancy, link churn,
            energy) and the ``timeseries`` section of the result.  Scalar
            counters are collected regardless; disabled runs schedule no
            extra events (golden traces stay bit-identical).
        metrics_interval: Cadence of the periodic probe sampler in simulated
            seconds.
        aodv_expanding_ring: Enable AODV's expanding-ring RREQ search
            (RFC 3561 §6.4): discoveries probe small TTL rings before
            flooding the full ``net_diameter_ttl``.  Off by default — flood
            behaviour and traces are untouched; the ``city10k`` presets turn
            it on because full-diameter floods dominate a 10k-node mesh.
    """

    variant: str = "vegas"
    bandwidth_mbps: float = 2.0
    vegas_alpha: float = 2.0
    newreno_max_cwnd: float = 3.0
    udp_interval: Optional[float] = None
    packet_target: int = 1100
    max_sim_time: float = 4000.0
    seed: int = 1
    routing: str = "aodv"
    tcp: TcpConfig = field(default_factory=TcpConfig)
    ack_thinning: AckThinningPolicy = field(default_factory=AckThinningPolicy)
    capture_threshold: float = 10.0
    mobility: str = "static"
    mobility_speed: Optional[float] = None
    mobility_pause: Optional[float] = None
    mobility_update_interval: float = 0.5
    metrics: bool = False
    metrics_interval: float = 0.1
    aodv_expanding_ring: bool = False

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.packet_target <= 0:
            raise ConfigurationError("packet_target must be positive")
        if self.routing not in ("aodv", "static"):
            raise ConfigurationError(f"unknown routing {self.routing!r}")
        if self.aodv_expanding_ring and self.routing != "aodv":
            raise ConfigurationError(
                "aodv_expanding_ring requires routing='aodv'"
            )
        MOBILITY_MODELS.get(self.mobility)  # fail fast on unknown mobility models
        if self.mobility != "static" and self.routing == "static":
            raise ConfigurationError(
                "static routing tables cannot follow moving nodes; "
                "use routing='aodv' with a mobile scenario"
            )
        if self.mobility_speed is not None and self.mobility_speed <= 0:
            raise ConfigurationError("mobility_speed must be positive")
        if self.mobility_pause is not None and self.mobility_pause < 0:
            raise ConfigurationError("mobility_pause must be non-negative")
        if self.mobility_update_interval <= 0:
            raise ConfigurationError("mobility_update_interval must be positive")
        if self.metrics_interval <= 0:
            raise ConfigurationError("metrics_interval must be positive")
        object.__setattr__(self, "variant", transport_key(self.variant))

    # ------------------------------------------------------------------
    # Convenience derivations
    # ------------------------------------------------------------------
    def vegas_parameters(self) -> VegasParameters:
        """Vegas thresholds with α = β = γ as used throughout the paper."""
        return VegasParameters(
            alpha=self.vegas_alpha, beta=self.vegas_alpha, gamma=self.vegas_alpha
        )


#: The three bandwidths studied in the paper, in Mbit/s.
PAPER_BANDWIDTHS = (2.0, 5.5, 11.0)

#: The hop counts plotted on the chain figures (2 to 64 hops).
PAPER_HOP_COUNTS = (2, 4, 8, 16, 32, 64)

#: The hop counts of the chain rows in ``benchmarks/bench_figures.py``.
DEFAULT_HOP_COUNTS = (2, 4, 8, 16)
