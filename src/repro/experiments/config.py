"""Scenario configuration for the experiment harness.

A :class:`ScenarioConfig` bundles every knob a paper experiment varies:
transport variant, 802.11 bandwidth, Vegas α, ACK thinning, routing protocol,
and the run length (packet target / batch structure).  The defaults reproduce
the paper's setup at a scaled-down run length so the whole harness finishes on
a laptop; set ``packet_target=110_000`` and ``batch_count=11`` for full
paper-scale runs.

Under the Workload API (:mod:`repro.experiments.workload`) the config holds
the *scenario-wide defaults*: each flow inherits them and may override the
transport variant and the per-flow parameters (Vegas α, window clamp, UDP
interval, TCP parameters, ACK thinning) through its ``FlowSpec``.

The transport variant may be given as a :class:`TransportVariant` enum member
(the paper's six variants), as a registry name (``"vegas-at"``), or as a
display label (``"Vegas ACK Thinning"``); strings naming a variant that has no
enum member — i.e. one added through
:func:`repro.transport.registry.register_transport` — are kept as canonical
registry names.  Variant-specific validation lives on the registered
:class:`repro.transport.registry.TransportProfile`, not here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.link.registry import get_link_layer
from repro.core.errors import ConfigurationError
from repro.mobility.registry import get_mobility
from repro.transport.ack_thinning import AckThinningPolicy
from repro.transport.registry import get_transport, transport_key
from repro.transport.tcp_base import TcpConfig
from repro.transport.vegas import VegasParameters


class TransportVariant(enum.Enum):
    """The transport protocol variants compared in the paper."""

    NEWRENO = "NewReno"
    VEGAS = "Vegas"
    NEWRENO_ACK_THINNING = "NewReno ACK Thinning"
    VEGAS_ACK_THINNING = "Vegas ACK Thinning"
    NEWRENO_OPTIMAL_WINDOW = "NewReno Optimal Window"
    PACED_UDP = "Paced UDP"

    @property
    def is_tcp(self) -> bool:
        """True for the TCP variants (everything except paced UDP)."""
        return self is not TransportVariant.PACED_UDP

    @property
    def uses_ack_thinning(self) -> bool:
        """True if the sink applies dynamic ACK thinning."""
        return self in (
            TransportVariant.NEWRENO_ACK_THINNING,
            TransportVariant.VEGAS_ACK_THINNING,
        )

    @property
    def is_vegas(self) -> bool:
        """True for the Vegas-based variants."""
        return self in (TransportVariant.VEGAS, TransportVariant.VEGAS_ACK_THINNING)


#: Canonical registry name → enum member, for the variants the enum covers.
_VARIANT_BY_KEY = {transport_key(member): member for member in TransportVariant}

#: A transport variant in any accepted spelling: enum member, registry name,
#: label or alias.  Configs normalise strings back to the enum when possible.
VariantLike = Union[TransportVariant, str]


def resolve_variant(variant: VariantLike) -> VariantLike:
    """Normalise a variant spelling.

    Returns the matching :class:`TransportVariant` member when one exists
    (so legacy ``config.variant is TransportVariant.VEGAS`` checks keep
    working), otherwise the canonical registry name of the registered
    profile.

    Raises:
        ConfigurationError: If the variant is not registered.
    """
    key = transport_key(variant)
    if isinstance(variant, TransportVariant):
        return variant
    return _VARIANT_BY_KEY.get(key, key)


def variant_label(variant: VariantLike) -> str:
    """Human-readable label of a variant (``TransportVariant.value`` for
    the built-ins, :attr:`TransportProfile.label` in general)."""
    return get_transport(variant).label


@dataclass(frozen=True)
class ScenarioConfig:
    """All parameters of one simulation scenario.

    Attributes:
        variant: Scenario-wide default transport variant — an enum member, a
            registry name (``"vegas-at"``) or a label; strings are normalised
            by :func:`resolve_variant`.  Every flow runs this variant unless
            its :class:`~repro.experiments.workload.FlowSpec` overrides it
            (mixed-transport workloads; see ``docs/workloads.md``).
        bandwidth_mbps: 802.11 data rate (2, 5.5 or 11 in the paper).
        vegas_alpha: Vegas α (= β = γ) threshold in packets.
        newreno_max_cwnd: Window clamp for the "optimal window" variant
            (the paper finds MaxWin = 3 for the 7-hop chain).
        udp_interval: Inter-packet time *t* for paced UDP; None lets the
            harness use the analytically derived 4-hop propagation delay as a
            starting point (Section 4.2).
        packet_target: Total in-order packets to deliver (across all flows)
            before the run stops.  The paper uses 110 000.
        batch_count: Number of batch-means batches the run is split into
            (the first is discarded as the warm-up transient).
        max_sim_time: Hard wall on simulated seconds, in case a scenario
            starves and never reaches the packet target.
        seed: Master RNG seed.
        routing: ``"aodv"`` (paper) or ``"static"`` (ablation baseline).
        queue_capacity: Interface queue size in packets (50 in the paper).
        flow_start_stagger: Gap in seconds between successive flow start
            times, breaking artificial synchronization at t = 0.
        tcp: TCP parameters (Table 1 defaults).
        ack_thinning: ACK-thinning thresholds (S1/S2/S3 and the 100 ms timer).
        run_slice: Granularity (simulated seconds) at which the runner checks
            the stop condition.
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
        link_layer: Link-layer profile resolved through
            :mod:`repro.link.registry` (``"wireless"``, the default 802.11
            plane, or ``"wired"``, one shared Ethernet-style CSMA/CD bus).
            Topologies carrying their own link plan (the ``backbone``
            family) override this; it is sweepable like any other axis.
        wired_rate_mbps: Transmission rate of wired segments built by the
            ``wired`` profile, in Mb/s.
        wired_propagation_delay: One-way propagation delay of those
            segments in seconds (also the collision vulnerability window).
    """

    variant: VariantLike = TransportVariant.VEGAS
    bandwidth_mbps: float = 2.0
    vegas_alpha: float = 2.0
    newreno_max_cwnd: Optional[float] = None
    udp_interval: Optional[float] = None
    packet_target: int = 1100
    batch_count: int = 11
    max_sim_time: float = 4000.0
    seed: int = 1
    routing: str = "aodv"
    queue_capacity: int = 50
    flow_start_stagger: float = 0.2
    tcp: TcpConfig = field(default_factory=TcpConfig)
    ack_thinning: AckThinningPolicy = field(default_factory=AckThinningPolicy)
    run_slice: float = 5.0
    capture_threshold: float = 10.0
    mobility: str = "static"
    mobility_speed: Optional[float] = None
    mobility_pause: Optional[float] = None
    mobility_update_interval: float = 0.5
    metrics: bool = False
    metrics_interval: float = 0.1
    aodv_expanding_ring: bool = False
    link_layer: str = "wireless"
    wired_rate_mbps: float = 10.0
    wired_propagation_delay: float = 5e-6

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.packet_target <= 0:
            raise ConfigurationError("packet_target must be positive")
        if self.batch_count < 2:
            raise ConfigurationError("batch_count must be at least 2")
        if self.routing not in ("aodv", "static"):
            raise ConfigurationError(f"unknown routing {self.routing!r}")
        if self.aodv_expanding_ring and self.routing != "aodv":
            raise ConfigurationError(
                "aodv_expanding_ring requires routing='aodv'"
            )
        get_mobility(self.mobility)  # fail fast on unknown mobility models
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
        get_link_layer(self.link_layer)  # fail fast on unknown link layers
        if self.wired_rate_mbps <= 0:
            raise ConfigurationError("wired_rate_mbps must be positive")
        if self.wired_propagation_delay < 0:
            raise ConfigurationError(
                "wired_propagation_delay must be non-negative")
        if self.link_layer != "wireless" and self.mobility != "static":
            raise ConfigurationError(
                "mobility models move radios; only the 'wireless' link "
                "layer supports mobility"
            )
        object.__setattr__(self, "variant", resolve_variant(self.variant))
        get_transport(self.variant).validate_config(self)

    # ------------------------------------------------------------------
    # Convenience derivations
    # ------------------------------------------------------------------
    def vegas_parameters(self) -> VegasParameters:
        """Vegas thresholds with α = β = γ as used throughout the paper."""
        return VegasParameters(
            alpha=self.vegas_alpha, beta=self.vegas_alpha, gamma=self.vegas_alpha
        )

    def with_variant(self, variant: VariantLike, **overrides) -> "ScenarioConfig":
        """Copy of this config with a different transport variant."""
        return replace(self, variant=variant, **overrides)

    def with_bandwidth(self, bandwidth_mbps: float) -> "ScenarioConfig":
        """Copy of this config with a different 802.11 data rate."""
        return replace(self, bandwidth_mbps=bandwidth_mbps)

    def scaled(self, packet_target: int) -> "ScenarioConfig":
        """Copy of this config with a different run length."""
        return replace(self, packet_target=packet_target)


#: The three bandwidths studied in the paper, in Mbit/s.
PAPER_BANDWIDTHS = (2.0, 5.5, 11.0)

#: The hop counts plotted on the chain figures (2 to 64 hops).
PAPER_HOP_COUNTS = (2, 4, 8, 16, 32, 64)

#: A laptop-friendly subset of hop counts used by the default benchmarks.
DEFAULT_HOP_COUNTS = (2, 4, 8, 16)
