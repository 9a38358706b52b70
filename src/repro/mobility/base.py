"""Mobility interfaces and the periodic position driver.

A :class:`MobilityModel` is a pure position generator: given a node's current
position and a time step it returns the next position, drawing any randomness
from the single stream it was bound with.  The :class:`MobilityManager` owns
the simulation side: every ``update_interval`` seconds it advances all nodes,
pushes the changed positions into the :class:`~repro.phy.channel.WirelessChannel`
in one batch (one cache invalidation per update, not one per node) and — when
tracing is on — records which links appeared or disappeared.

Nothing else in the stack knows about mobility: reachability is recomputed by
the channel from the updated positions, the 802.11 MAC discovers a vanished
neighbour by exhausting its retry limits, and AODV turns that link-layer
failure into an RERR plus a fresh route discovery.  That chain — move,
retry-fail, RERR, re-discover — is exactly the dynamics static topologies can
never produce.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from random import Random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.engine import Simulator
from repro.core.errors import ConfigurationError
from repro.core.tracing import NULL_TRACER, Tracer
from repro.metrics import MetricsRegistry, NULL_METRICS, StatsRecord
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import Position

#: Default margin (metres) added around a topology's bounding box to form the
#: movement area, so edge nodes have room to roam out of (and back into) range.
DEFAULT_AREA_MARGIN = 150.0


@dataclass(frozen=True)
class MobilityArea:
    """The axis-aligned rectangle nodes are allowed to move within."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.max_x < self.min_x or self.max_y < self.min_y:
            raise ConfigurationError(
                f"degenerate mobility area [{self.min_x},{self.max_x}]x"
                f"[{self.min_y},{self.max_y}]"
            )

    @property
    def width(self) -> float:
        """Extent along x in metres."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along y in metres."""
        return self.max_y - self.min_y

    def contains(self, position: Position) -> bool:
        """True if ``position`` lies inside (or on the border of) the area."""
        return (self.min_x <= position.x <= self.max_x
                and self.min_y <= position.y <= self.max_y)

    def clamp(self, position: Position) -> Position:
        """The closest position inside the area."""
        return Position(
            x=min(max(position.x, self.min_x), self.max_x),
            y=min(max(position.y, self.min_y), self.max_y),
        )

    def random_point(self, rng: Random) -> Position:
        """A uniformly distributed position inside the area."""
        return Position(
            x=rng.uniform(self.min_x, self.max_x),
            y=rng.uniform(self.min_y, self.max_y),
        )


def area_around(positions: Iterable[Position],
                margin: float = DEFAULT_AREA_MARGIN) -> MobilityArea:
    """The bounding box of ``positions`` grown by ``margin`` on every side.

    This is how scenario construction derives the movement area from the
    initial (topology) placement, so a mobile chain roams around the chain
    and a mobile random field roams around its original extent.

    Raises:
        ConfigurationError: If ``positions`` is empty.
    """
    xs, ys = [], []
    for position in positions:
        xs.append(position.x)
        ys.append(position.y)
    if not xs:
        raise ConfigurationError("cannot derive a mobility area from no positions")
    return MobilityArea(
        min_x=min(xs) - margin, min_y=min(ys) - margin,
        max_x=max(xs) + margin, max_y=max(ys) + margin,
    )


class MobilityModel(ABC):
    """Interface every mobility model implements.

    A model is bound once to the node population (:meth:`bind`) and then
    advanced one node at a time (:meth:`advance`).  Models must be
    deterministic functions of their bound RNG stream: the manager always
    iterates nodes in sorted-id order, so draws happen in a reproducible
    sequence and fixed-seed scenarios replay bit-identically.

    Attributes:
        mobile: False for models that never move a node (the scenario runner
            skips the manager entirely, keeping static runs event-identical
            to a build without mobility).
    """

    mobile: bool = True

    def bind(self, positions: Dict[int, Position], area: MobilityArea,
             rng: Random) -> None:
        """Attach the model to the node population.

        Args:
            positions: Initial position of every node (not mutated).
            area: Movement area the model must stay inside.
            rng: Dedicated random stream for all of the model's draws.
        """

    @abstractmethod
    def advance(self, node_id: int, position: Position, dt: float) -> Position:
        """Return ``node_id``'s position ``dt`` seconds after ``position``."""


class MobilityStats(StatsRecord):
    """Counters the manager maintains about movement and link dynamics,
    published as ``mobility.<field>``."""

    __slots__ = {
        "updates": "Periodic position updates run.",
        "position_changes": "Individual node moves applied to the channel.",
        "links_broken":
            "Transmission-range links lost to movement or scripted outage.",
        "links_formed":
            "Transmission-range links created by movement or outage recovery.",
    }


class MobilityManager:
    """Drives a :class:`MobilityModel` through periodic engine events.

    Args:
        sim: The simulation engine.
        channel: The channel whose positions are updated; its registered
            nodes define the population that moves.
        model: The mobility model.
        update_interval: Seconds between position updates.  Smaller values
            give smoother motion at the cost of more cache invalidations;
            0.5 s at typical pedestrian/vehicular speeds moves nodes by a few
            metres per update, well below the 250 m transmission range.
        rng: Random stream handed to the model at bind time (a scenario passes
            its seeded ``"mobility"`` stream here).
        tracer: Optional tracer; when enabled, per-update summaries and every
            individual link break/formation are recorded under the
            ``mobility`` layer.
        metrics: Optional metrics registry; churn counters register under
            ``mobility.*`` and, when the registry is enabled, an
            ``mobility.active_links`` probe samples the live link count.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: WirelessChannel,
        model: MobilityModel,
        update_interval: float = 0.5,
        rng: Optional[Random] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        if update_interval <= 0 or not math.isfinite(update_interval):
            raise ConfigurationError(
                f"update_interval must be positive and finite, got {update_interval!r}"
            )
        self.sim = sim
        self.channel = channel
        self.model = model
        self.update_interval = update_interval
        self.rng = rng if rng is not None else Random(0)
        self.tracer = tracer
        self.metrics = metrics
        self.stats = MobilityStats(metrics, prefix="mobility")
        self._node_ids: List[int] = sorted(channel.node_ids)
        self._started = False
        self._links: Set[Tuple[int, int]] = set()
        # Symmetric adjacency mirror of _links ({node: set of neighbours}),
        # kept in lockstep so per-update diffs only visit the movers instead
        # of recomputing every node's neighbour view.
        self._adjacency: Dict[int, Set[int]] = {}
        self._seen_impairments = channel.impairment_generation

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the model and schedule the first update.

        A no-op for immobile models (``model.mobile`` false) so that a
        scenario configured with static mobility schedules exactly the same
        events as one built without a manager at all.
        """
        if self._started or not self.model.mobile:
            return
        self._started = True
        positions = {node: self.channel.position_of(node) for node in self._node_ids}
        self.model.bind(positions, area_around(positions.values()), self.rng)
        self._links = self._current_links()
        self._adjacency = self._adjacency_from_links(self._links)
        self._seen_impairments = self.channel.impairment_generation
        self.metrics.add_probe(
            "mobility.active_links", lambda: len(self._links), unit="links",
            description="Bidirectional in-transmission-range pairs.")
        self.sim.schedule(self.update_interval, self._update)

    # ------------------------------------------------------------------
    # Periodic update
    # ------------------------------------------------------------------
    def _update(self) -> None:
        dt = self.update_interval
        channel = self.channel
        moved: Dict[int, Position] = {}
        for node_id in self._node_ids:
            position = channel.position_of(node_id)
            new_position = self.model.advance(node_id, position, dt)
            if new_position != position:
                moved[node_id] = new_position
        if moved:
            channel.set_positions(moved)
        stats = self.stats
        stats.updates += 1
        stats.position_changes += len(moved)
        if moved or channel.impairment_generation != self._seen_impairments:
            self._diff_links(moved)
        elif self.tracer.enabled:
            # Nothing moved and no impairment changed, so the link set is
            # provably unchanged and the O(N·k) recompute is skipped — but the
            # per-update trace record is still emitted so traces stay
            # bit-identical to an unconditional diff.
            self.tracer.record(self.sim.now, "mobility", "update",
                               moved=0, broken=0, formed=0)
        self.sim.schedule(self.update_interval, self._update)

    def _diff_links(self, moved: Dict[int, Position]) -> None:
        """Update the link-churn stats (and trace the individual changes).

        Runs when at least one node moved or a scripted impairment (node
        down, link blocked) changed since the last diff; both movement and
        outages can break or form links, and both flow through this single
        path so ``mobility.active_links`` and the ``link_up``/``link_down``
        trace stream always reflect the channel's delivery reality.

        Movement-only updates diff incrementally: only the movers' neighbour
        views are recomputed (O(movers·k), not O(N·k)).  That is exhaustive
        because a pair whose status changed must contain a mover, and the
        adjacency mirror is updated symmetrically so the non-mover endpoint
        needs no visit of its own.  Impairment changes can flip static-static
        pairs, so those fall back to the full recompute.
        """
        channel = self.channel
        if channel.impairment_generation != self._seen_impairments:
            self._seen_impairments = channel.impairment_generation
            links = self._current_links()
            broken = sorted(self._links - links)
            formed = sorted(links - self._links)
            self._links = links
            self._adjacency = self._adjacency_from_links(links)
        else:
            broken, formed = self._diff_movers(moved)
            self._links.difference_update(broken)
            self._links.update(formed)
        self.stats.links_broken += len(broken)
        self.stats.links_formed += len(formed)
        if not self.tracer.enabled:
            return
        self.tracer.record(self.sim.now, "mobility", "update",
                           moved=len(moved), broken=len(broken),
                           formed=len(formed))
        for a, b in broken:
            self.tracer.record(self.sim.now, "mobility", "link_down", a=a, b=b)
        for a, b in formed:
            self.tracer.record(self.sim.now, "mobility", "link_up", a=a, b=b)

    def _diff_movers(self, moved: Dict[int, Position]) -> Tuple[
            List[Tuple[int, int]], List[Tuple[int, int]]]:
        """Sorted (broken, formed) link lists from re-diffing only the movers.

        Each mover's fresh neighbour view is diffed against the adjacency
        mirror, and the mirror's other endpoint is patched symmetrically —
        so when both endpoints of a changed pair moved, the second mover
        sees an already-updated mirror and the pair is reported exactly once.
        """
        channel = self.channel
        adjacency = self._adjacency
        broken: List[Tuple[int, int]] = []
        formed: List[Tuple[int, int]] = []
        for a in sorted(moved):
            new_neighbors = set(channel.neighbors_of(a))
            old_neighbors = adjacency[a]
            if new_neighbors == old_neighbors:
                continue
            for b in old_neighbors - new_neighbors:
                adjacency[b].discard(a)
                broken.append((a, b) if a < b else (b, a))
            for b in new_neighbors - old_neighbors:
                adjacency[b].add(a)
                formed.append((a, b) if a < b else (b, a))
            adjacency[a] = new_neighbors
        broken.sort()
        formed.sort()
        return broken, formed

    def _adjacency_from_links(self, links: Set[Tuple[int, int]]) -> Dict[int, Set[int]]:
        """A fresh symmetric adjacency mirror of ``links``."""
        adjacency: Dict[int, Set[int]] = {node: set() for node in self._node_ids}
        for a, b in links:
            adjacency[a].add(b)
            adjacency[b].add(a)
        return adjacency

    def _current_links(self) -> Set[Tuple[int, int]]:
        """All bidirectional in-transmission-range pairs, as ordered tuples.

        Delegates the in-range test to the channel's own neighbour view —
        grid-indexed and impairment-aware — so the link diff costs O(N·k) in
        the local neighbourhood size and can never diverge from what the
        radios experience.
        """
        neighbors_of = self.channel.neighbors_of
        return {(a, b)
                for a in self._node_ids
                for b in neighbors_of(a)
                if a < b}
