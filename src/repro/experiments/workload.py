"""Workload API v2: per-flow specs, heterogeneous transports, timelines.

The paper's experiments all run *one* transport variant per scenario: a
scalar ``ScenarioConfig.variant`` applied to every flow of the topology.
This module makes the workload a first-class composable object instead:

* :class:`FlowSpec` — one traffic flow with its *own* transport variant,
  application timing (start/stop), an optional packet budget, and per-flow
  TCP/Vegas parameter overrides.  A flow that sets nothing inherits every
  default from the scenario's :class:`~repro.experiments.config.ScenarioConfig`.
* :class:`Workload` — an ordered collection of flow specs (the traffic mix of
  one scenario).
* :class:`ScenarioEvent` — one scheduled intervention: start or stop a flow
  mid-run, take a node down (radio silence) or bring it back, block or
  unblock an individual link.
* :class:`ScenarioSpec` — the complete declarative description the runner
  executes: topology + workload + scenario-wide config + a deterministic
  **timeline** of events.  It is the only input of
  :class:`~repro.experiments.runner.Scenario`.

Quickstart — NewReno competing with a late-starting Vegas flow while node 3
drops off the air for ten seconds::

    from repro.experiments.runner import Scenario
    from repro.topology.chain import chain_topology

    spec = ScenarioSpec(
        name="coexistence-demo",
        topology=chain_topology(hops=7),
        workload=Workload(flows=(
            FlowSpec(0, 7, variant="newreno"),
            FlowSpec(0, 7, variant="vegas", label="latecomer"),
        )),
        config=ScenarioConfig(packet_target=400, seed=3),
        timeline=(ScenarioEvent.flow_start(5.0, flow=2),
                  ScenarioEvent.node_down(20.0, 3),
                  ScenarioEvent.node_up(30.0, 3)),
    )
    result = Scenario(spec).run()

A spec without a workload lifts the topology's own flows, each inheriting
every scenario-wide default: ``ScenarioSpec(topology=..., config=...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.link.plan import LinkPlan
from repro.topology.base import Topology
from repro.transport.ack_thinning import AckThinningPolicy
from repro.transport.registry import TRANSPORTS, transport_key
from repro.transport.tcp_base import TcpConfig

__all__ = [
    "FlowSpec",
    "Workload",
    "ScenarioEvent",
    "ScenarioSpec",
    "mixed_transport_workload",
]

#: Memo of validated per-flow configs, keyed by (base config, sorted override
#: items).  ``dataclasses.replace`` re-runs the full ScenarioConfig
#: ``__post_init__`` validation, which dominates scenario construction when
#: thousands of flows share a handful of override combinations — uniform
#: workloads collapse to one validation per distinct combination.  Both keys
#: and values are frozen dataclasses, so sharing the result object is safe.
_EFFECTIVE_CONFIG_CACHE: Dict[Tuple[ScenarioConfig, Tuple], ScenarioConfig] = {}
_EFFECTIVE_CONFIG_CACHE_LIMIT = 1024


@dataclass(frozen=True)
class FlowSpec:
    """One traffic flow of a scenario workload.

    Every optional field defaults to "inherit from the scenario config", so a
    bare ``FlowSpec(source, destination)`` behaves exactly like a topology
    flow lifted by a spec without a workload.

    Attributes:
        source: Source node id (must exist in the scenario's topology).
        destination: Destination node id.
        variant: Transport variant for *this* flow, its registry key
            (``"vegas-at"``); ``None`` uses the scenario-wide
            ``config.variant``.
        start_time: Simulated time the driving application starts; ``None``
            uses the scenario's staggered default
            (``(index - 1) * FLOW_START_STAGGER``, 0.2 s apart; see
            :mod:`repro.experiments.runner`).  A ``flow-start`` timeline
            event on this flow takes precedence over both.
        stop_time: Simulated time the application stops generating traffic;
            ``None`` means the flow runs until the scenario ends.
        packet_limit: Data-packet budget for the flow (TCP senders stop after
            this many segments, CBR sources after this many datagrams);
            ``None`` means unbounded.
        label: Optional human-readable name carried into the per-flow result.
        vegas_alpha: Per-flow Vegas α (= β = γ) override.
        newreno_max_cwnd: Per-flow window clamp for the optimal-window variants.
        udp_interval: Per-flow inter-packet time for paced UDP.
        tcp: Per-flow :class:`~repro.transport.tcp_base.TcpConfig` override.
        ack_thinning: Per-flow ACK-thinning policy override.
    """

    source: int
    destination: int
    variant: Optional[str] = None
    start_time: Optional[float] = None
    stop_time: Optional[float] = None
    packet_limit: Optional[int] = None
    label: Optional[str] = None
    vegas_alpha: Optional[float] = None
    newreno_max_cwnd: Optional[float] = None
    udp_interval: Optional[float] = None
    tcp: Optional[TcpConfig] = None
    ack_thinning: Optional[AckThinningPolicy] = None

    #: Fields that map one-to-one onto :class:`ScenarioConfig` overrides.
    _CONFIG_OVERRIDES = (
        "vegas_alpha",
        "newreno_max_cwnd",
        "udp_interval",
        "tcp",
        "ack_thinning",
    )

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ConfigurationError("flow source and destination must differ")
        if self.variant is not None:
            # Normalise eagerly so misspelled variants fail at spec time, and
            # spec equality / serialization is spelling-independent.
            object.__setattr__(self, "variant", transport_key(self.variant))
        for name in ("start_time", "stop_time"):
            value = getattr(self, name)
            if value is not None and (value < 0 or not math.isfinite(value)):
                raise ConfigurationError(f"{name} must be a non-negative finite time")
        if (self.start_time is not None and self.stop_time is not None
                and self.stop_time <= self.start_time):
            raise ConfigurationError("stop_time must be after start_time")
        if self.packet_limit is not None and self.packet_limit < 1:
            raise ConfigurationError("packet_limit must be at least 1")
        if self.vegas_alpha is not None and self.vegas_alpha <= 0:
            raise ConfigurationError("vegas_alpha must be positive")
        if self.udp_interval is not None and self.udp_interval <= 0:
            raise ConfigurationError("udp_interval must be positive")

    # ------------------------------------------------------------------
    # Resolution against the scenario-wide defaults
    # ------------------------------------------------------------------
    @property
    def endpoints(self) -> Tuple[int, int]:
        """The ``(source, destination)`` node pair."""
        return (self.source, self.destination)

    def config_overrides(self) -> Dict[str, object]:
        """The non-``None`` per-flow config overrides, including ``variant``."""
        overrides: Dict[str, object] = {}
        if self.variant is not None:
            overrides["variant"] = self.variant
        for name in self._CONFIG_OVERRIDES:
            value = getattr(self, name)
            if value is not None:
                overrides[name] = value
        return overrides

    def effective_config(self, base: ScenarioConfig) -> ScenarioConfig:
        """The flow-level :class:`ScenarioConfig` this flow is built with.

        Returns ``base`` itself when the flow overrides nothing, so flows that
        inherit everything are built from the identical config object.
        Flows with identical overrides against the same base share one
        validated config object (see ``_EFFECTIVE_CONFIG_CACHE``), making
        thousand-flow uniform scenarios pay for validation once, not per flow.
        """
        overrides = self.config_overrides()
        if not overrides:
            return base
        try:
            key = (base, tuple(sorted(overrides.items())))
            cached = _EFFECTIVE_CONFIG_CACHE.get(key)
        except TypeError:
            # Unhashable override value (a caller passed a bespoke mutable
            # object): build an uncached fresh copy.
            return replace(base, **overrides)
        if cached is None:
            if len(_EFFECTIVE_CONFIG_CACHE) >= _EFFECTIVE_CONFIG_CACHE_LIMIT:
                _EFFECTIVE_CONFIG_CACHE.clear()
            cached = _EFFECTIVE_CONFIG_CACHE[key] = replace(base, **overrides)
        return cached


@dataclass(frozen=True)
class Workload:
    """The traffic mix of one scenario: an ordered tuple of flow specs.

    Flow *i* of the paper's figures is ``workload[i - 1]``; timeline events
    and per-flow results use the same 1-based numbering.
    """

    flows: Tuple[FlowSpec, ...] = ()

    def __post_init__(self) -> None:
        flows = tuple(self.flows)
        if not flows:
            raise ConfigurationError("a workload needs at least one flow")
        for flow in flows:
            if not isinstance(flow, FlowSpec):
                raise ConfigurationError(
                    f"workload flows must be FlowSpec instances, got {flow!r}"
                )
        object.__setattr__(self, "flows", flows)

    @classmethod
    def from_topology(cls, topology: Topology, **common: object) -> "Workload":
        """Lift a topology's endpoint flows into a workload.

        Args:
            topology: Provides the flow endpoints (``topology.flows``).
            **common: :class:`FlowSpec` fields applied to every flow (e.g.
                ``variant="vegas"``).
        """
        return cls(flows=tuple(
            FlowSpec(source=source, destination=destination, **common)
            for source, destination in topology.flows
        ))

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self) -> Iterator[FlowSpec]:
        return iter(self.flows)

    def __getitem__(self, index: int) -> FlowSpec:
        return self.flows[index]

    def is_uniform(self, default: str) -> bool:
        """True when every flow runs ``default``, the scenario-wide variant key.

        A flow counts as uniform whether it inherits the default implicitly
        (``variant=None``) or names the same variant explicitly.
        """
        return all(flow.variant in (None, default) for flow in self.flows)


#: Timeline actions understood by the scenario runner.  Flow actions target a
#: 1-based flow index; node actions target a node id; link actions target an
#: unordered node pair.
EVENT_ACTIONS = (
    "flow-start",
    "flow-stop",
    "node-down",
    "node-up",
    "link-down",
    "link-up",
)


@dataclass(frozen=True)
class ScenarioEvent:
    """One scheduled intervention in a scenario's timeline.

    Use the classmethod constructors (:meth:`flow_start`, :meth:`node_down`,
    …) rather than spelling the action strings by hand.

    Attributes:
        time: Simulated time the event fires.
        action: One of :data:`EVENT_ACTIONS`.
        target: Flow index (1-based) for flow actions, node id otherwise.
        peer: Second node id for link actions; ``None`` otherwise.
    """

    time: float
    action: str
    target: int
    peer: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time < 0 or not math.isfinite(self.time):
            raise ConfigurationError("event time must be a non-negative finite time")
        if self.action not in EVENT_ACTIONS:
            raise ConfigurationError(
                f"unknown timeline action {self.action!r}; "
                f"known: {', '.join(EVENT_ACTIONS)}"
            )
        is_link = self.action.startswith("link-")
        if is_link:
            if self.peer is None or self.peer == self.target:
                raise ConfigurationError(
                    f"{self.action} events need two distinct node ids"
                )
        elif self.peer is not None:
            raise ConfigurationError(f"{self.action} events take no peer node")

    # -- constructors ---------------------------------------------------
    @classmethod
    def flow_start(cls, time: float, flow: int) -> "ScenarioEvent":
        """Start flow ``flow`` (1-based) at ``time`` (overrides its default)."""
        return cls(time=time, action="flow-start", target=flow)

    @classmethod
    def flow_stop(cls, time: float, flow: int) -> "ScenarioEvent":
        """Stop flow ``flow``'s application at ``time``."""
        return cls(time=time, action="flow-stop", target=flow)

    @classmethod
    def node_down(cls, time: float, node: int) -> "ScenarioEvent":
        """Silence ``node``'s radio at ``time`` (transmits vanish, nothing
        is received); upper layers keep running and see a dead link."""
        return cls(time=time, action="node-down", target=node)

    @classmethod
    def node_up(cls, time: float, node: int) -> "ScenarioEvent":
        """Bring a downed node's radio back on the air at ``time``."""
        return cls(time=time, action="node-up", target=node)

    @classmethod
    def link_down(cls, time: float, a: int, b: int) -> "ScenarioEvent":
        """Block the (bidirectional) link between nodes ``a`` and ``b``."""
        return cls(time=time, action="link-down", target=a, peer=b)

    @classmethod
    def link_up(cls, time: float, a: int, b: int) -> "ScenarioEvent":
        """Unblock a previously blocked link."""
        return cls(time=time, action="link-up", target=a, peer=b)

    @property
    def is_flow_event(self) -> bool:
        """True for flow-start / flow-stop events."""
        return self.action.startswith("flow-")


@dataclass(frozen=True)
class ScenarioSpec:
    """The complete declarative description of one runnable scenario.

    Attributes:
        topology: Node placement (flow endpoints come from the workload).
        workload: The traffic mix; ``None`` lifts the topology's own flows
            into a workload whose flows all inherit the config's defaults.
        config: Scenario-wide defaults (bandwidth, seed, routing, mobility,
            metrics, run length); flows inherit anything they don't override.
        timeline: Scheduled :class:`ScenarioEvent` interventions, executed
            deterministically in (time, declaration order).
        name: Optional scenario name (defaults to the topology name).
    """

    topology: Topology
    workload: Optional[Workload] = None
    config: ScenarioConfig = field(default_factory=ScenarioConfig)
    timeline: Tuple[ScenarioEvent, ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workload is None:
            object.__setattr__(
                self, "workload", Workload.from_topology(self.topology))
        elif not isinstance(self.workload, Workload):
            object.__setattr__(self, "workload", Workload(tuple(self.workload)))
        object.__setattr__(self, "timeline", tuple(self.timeline))
        self._validate()

    def _validate(self) -> None:
        nodes = self.topology.positions
        plan = self.topology.link_plan
        if self.config.mobility != "static" and plan is not None:
            without_radio = set(nodes) - set(plan.wireless_nodes)
            if without_radio:
                raise ConfigurationError(
                    f"mobility {self.config.mobility!r} moves radios, but the "
                    f"link plan of topology {self.topology.name!r} gives node "
                    f"{min(without_radio)} none"
                )
        # Flows sharing an effective config object (the memoized common case)
        # are validated once per distinct object, not once per flow.
        validated_configs = set()
        for index, flow in enumerate(self.workload, start=1):
            for endpoint in flow.endpoints:
                if endpoint not in nodes:
                    raise ConfigurationError(
                        f"flow {index} endpoint {endpoint} is not a node of "
                        f"topology {self.topology.name!r}"
                    )
            # Fail fast on invalid per-flow variant/parameter combinations
            # (e.g. an optimal-window flow without a window clamp).
            flow_config = flow.effective_config(self.config)
            if id(flow_config) not in validated_configs:
                validated_configs.add(id(flow_config))
                TRANSPORTS.get(flow_config.variant).validate_config(flow_config)
        if self.config.routing == "aodv" and plan is not None:
            self._check_aodv_reach(plan)
        for event in self.timeline:
            if event.is_flow_event:
                if not 1 <= event.target <= len(self.workload):
                    raise ConfigurationError(
                        f"timeline event {event.action!r} targets flow "
                        f"{event.target}, but the workload has "
                        f"{len(self.workload)} flow(s)"
                    )
            else:
                for node in (event.target, event.peer):
                    if node is not None and node not in nodes:
                        raise ConfigurationError(
                            f"timeline event {event.action!r} targets unknown "
                            f"node {node}"
                        )

    def _check_aodv_reach(self, plan: LinkPlan) -> None:
        """Refuse a flow AODV cannot carry on a link plan.

        A route request never crosses a gateway's wired port, so a wireless
        node that is not a gateway reaches only the wireless nodes of its
        own subnet.  Both directions are checked: TCP acknowledgements
        travel back along the same kind of route.
        """
        wireless = set(plan.wireless_nodes)
        radio_only = wireless - set(plan.gateways)
        for index, flow in enumerate(self.workload, start=1):
            source, destination = flow.endpoints
            for near, far in ((source, destination), (destination, source)):
                if near in radio_only and (
                        far not in wireless
                        or plan.subnet_of.get(far) != plan.subnet_of.get(near)):
                    raise ConfigurationError(
                        f"flow {index} ({source} -> {destination}) leaves "
                        f"node {near}'s wireless subnet on topology "
                        f"{self.topology.name!r}, and AODV route requests do "
                        "not cross the wired plane; use routing='static' "
                        "(--axis routing=static on the command line)"
                    )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def with_config(self, **overrides: object) -> "ScenarioSpec":
        """Copy of this spec with scenario-config fields overridden."""
        return replace(self, config=replace(self.config, **overrides))

    def sorted_timeline(self) -> Tuple[ScenarioEvent, ...]:
        """Timeline events in execution order (time, then declaration order)."""
        return tuple(sorted(self.timeline, key=lambda event: event.time))

    @property
    def display_name(self) -> str:
        """The spec's name, falling back to the topology name."""
        return self.name if self.name is not None else self.topology.name


def mixed_transport_workload(
    topology: Topology,
    primary: str = "newreno",
    secondary: str = "vegas",
    secondary_flows: int = 0,
    **common: object,
) -> Workload:
    """Workload where the last ``secondary_flows`` flows run ``secondary``.

    A module-level (hence picklable) workload factory for traffic-mix sweeps:
    sweep the ``workload.secondary_flows`` axis of a
    :class:`~repro.experiments.study.SweepSpec` to vary e.g. the fraction of
    Vegas flows competing with NewReno flows.

    Args:
        topology: Provides the flow endpoints.
        primary: Variant of the leading flows.
        secondary: Variant of the trailing ``secondary_flows`` flows.
        secondary_flows: How many trailing flows run ``secondary``; clamped
            to the number of topology flows.
        **common: Extra :class:`FlowSpec` fields applied to every flow.
    """
    if secondary_flows < 0:
        raise ConfigurationError("secondary_flows must be non-negative")
    endpoints = topology.flows
    cut = len(endpoints) - min(secondary_flows, len(endpoints))
    return Workload(flows=tuple(
        FlowSpec(source=source, destination=destination,
                 variant=(primary if index < cut else secondary), **common)
        for index, (source, destination) in enumerate(endpoints)
    ))
