"""Workload API v2: per-flow specs, heterogeneous transports, timelines.

The paper's experiments all run *one* transport variant per scenario: a
scalar ``ScenarioConfig.variant`` applied to every flow of the topology.
This module lets each flow of a scenario name its own:

* :class:`FlowSpec` — one traffic flow with its *own* transport variant,
  application timing (start/stop) and an optional packet budget.  Every
  other run parameter is the scenario's
  :class:`~repro.experiments.config.ScenarioConfig`, shared by all flows.
  A scenario's workload is a tuple of them (the traffic mix).
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
        workload=(
            FlowSpec(0, 7, variant="newreno"),
            FlowSpec(0, 7, variant="vegas", label="latecomer"),
        ),
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
from typing import Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.link.plan import LinkPlan
from repro.topology.base import Topology
from repro.transport.registry import transport_key

__all__ = [
    "FlowSpec",
    "ScenarioEvent",
    "ScenarioSpec",
]


@dataclass(frozen=True)
class FlowSpec:
    """One traffic flow of a scenario workload.

    A flow chooses its variant, timing, budget and label; every other run
    parameter is the scenario config's.  A bare ``FlowSpec(source,
    destination)`` behaves exactly like a topology flow lifted by a spec
    without a workload.

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
    """

    source: int
    destination: int
    variant: Optional[str] = None
    start_time: Optional[float] = None
    stop_time: Optional[float] = None
    packet_limit: Optional[int] = None
    label: Optional[str] = None

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

    # ------------------------------------------------------------------
    # Resolution against the scenario-wide defaults
    # ------------------------------------------------------------------
    @property
    def endpoints(self) -> Tuple[int, int]:
        """The ``(source, destination)`` node pair."""
        return (self.source, self.destination)

    def effective_config(self, base: ScenarioConfig) -> ScenarioConfig:
        """The :class:`ScenarioConfig` this flow is built with.

        ``base`` itself unless the flow names another variant, else a copy
        of ``base`` running that variant (validated on construction, like
        every config).
        """
        if self.variant is None or self.variant == base.variant:
            return base
        return replace(base, variant=self.variant)


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
        workload: The traffic mix, a tuple of :class:`FlowSpec` (flow *i*
            of the figures, of timeline events and of the per-flow results
            is ``workload[i - 1]``); ``None`` lifts the topology's own flows,
            each inheriting every scenario-wide default.
        config: The run parameters every flow shares (bandwidth, seed,
            routing, mobility, metrics, run length) and the default variant
            of a flow that names none.
        timeline: Scheduled :class:`ScenarioEvent` interventions, executed
            deterministically in (time, declaration order).
        name: Optional scenario name (defaults to the topology name).
    """

    topology: Topology
    workload: Optional[Tuple[FlowSpec, ...]] = None
    config: ScenarioConfig = field(default_factory=ScenarioConfig)
    timeline: Tuple[ScenarioEvent, ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        workload = (
            tuple(FlowSpec(source, destination)
                  for source, destination in self.topology.flows)
            if self.workload is None else tuple(self.workload))
        if not workload:
            raise ConfigurationError("a workload needs at least one flow")
        for flow in workload:
            if not isinstance(flow, FlowSpec):
                raise ConfigurationError(
                    f"workload flows must be FlowSpec instances, got {flow!r}")
        object.__setattr__(self, "workload", workload)
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
        for index, flow in enumerate(self.workload, start=1):
            for endpoint in flow.endpoints:
                if endpoint not in nodes:
                    raise ConfigurationError(
                        f"flow {index} endpoint {endpoint} is not a node of "
                        f"topology {self.topology.name!r}"
                    )
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
