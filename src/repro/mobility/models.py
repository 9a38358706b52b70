"""Built-in mobility models: static, random waypoint, random walk, Manhattan.

All models implement :class:`repro.mobility.base.MobilityModel` and are pure
position generators — they schedule nothing and know nothing about the
channel.  Randomness comes exclusively from the stream passed to ``bind``, so
a fixed scenario seed replays the exact same trajectories.

The mobile models are the standard ones of the ad-hoc networking literature
(and of ns-2's ``setdest`` tool the paper's toolchain ships with):

* **Random waypoint** — pick a uniform destination in the area, travel to it
  in a straight line at a uniformly drawn speed, pause, repeat.  The classic
  stress test for on-demand routing: links break while a node is in transit
  and reappear when it settles.
* **Random walk** — travel at constant speed, redrawing a uniform heading
  every ``turn_interval`` seconds, reflecting off the area boundary.  Gentler
  link churn with no pause phases.
* **Manhattan grid** — constrain movement to a regular grid of streets (the
  city-scale mobility pattern): nodes travel along a street at constant
  speed and at every intersection continue straight, turn left or turn
  right with configured probabilities.  Produces the corridor-correlated
  link churn of an urban mesh rather than uniform free-space motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Dict, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.mobility.base import MobilityArea, MobilityModel
from repro.phy.propagation import Position


class StaticMobility(MobilityModel):
    """The no-op model: every node stays where the topology placed it.

    Exists so "no mobility" is a table entry like any other —
    ``ScenarioConfig(mobility="static")`` is the default and scenario
    construction skips the manager entirely for immobile models.
    """

    mobile = False

    def advance(self, node_id: int, position: Position, dt: float) -> Position:
        """Return ``position`` unchanged."""
        return position


@dataclass
class _WaypointState:
    """Per-node trajectory state of the random-waypoint model."""

    target: Position
    speed: float
    pause_remaining: float = 0.0


class RandomWaypointMobility(MobilityModel):
    """Random-waypoint movement (Johnson & Maltz): travel, pause, repeat.

    Args:
        min_speed: Lower bound of the per-leg uniform speed draw (m/s).
            Kept strictly positive — the literature's ``min_speed=0`` variant
            makes nodes park forever as average speed decays.
        max_speed: Upper bound of the per-leg speed draw (m/s).
        pause_time: Pause at each waypoint before the next leg (s).
    """

    def __init__(self, min_speed: float = 1.0, max_speed: float = 10.0,
                 pause_time: float = 2.0) -> None:
        if min_speed <= 0 or max_speed < min_speed:
            raise ConfigurationError(
                f"need 0 < min_speed <= max_speed, got {min_speed!r}/{max_speed!r}"
            )
        if pause_time < 0:
            raise ConfigurationError("pause_time must be non-negative")
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause_time = pause_time
        self._area: Optional[MobilityArea] = None
        self._rng: Optional[Random] = None
        self._states: Dict[int, _WaypointState] = {}

    def bind(self, positions: Dict[int, Position], area: MobilityArea,
             rng: Random) -> None:
        """Draw an initial waypoint and speed for every node (sorted-id order)."""
        self._area = area
        self._rng = rng
        self._states = {
            node_id: self._new_leg() for node_id in sorted(positions)
        }

    def _new_leg(self) -> _WaypointState:
        assert self._area is not None and self._rng is not None
        return _WaypointState(
            target=self._area.random_point(self._rng),
            speed=self._rng.uniform(self.min_speed, self.max_speed),
        )

    def advance(self, node_id: int, position: Position, dt: float) -> Position:
        """Move ``dt`` seconds along the node's current leg (or sit out a pause)."""
        state = self._states[node_id]
        remaining = dt
        while remaining > 0:
            if state.pause_remaining > 0:
                consumed = min(state.pause_remaining, remaining)
                state.pause_remaining -= consumed
                remaining -= consumed
                continue
            distance_left = position.distance_to(state.target)
            step = state.speed * remaining
            if step < distance_left:
                fraction = step / distance_left
                position = Position(
                    x=position.x + (state.target.x - position.x) * fraction,
                    y=position.y + (state.target.y - position.y) * fraction,
                )
                break
            # Waypoint reached within this step: arrive, pause, pick a new leg.
            travel_time = distance_left / state.speed
            position = state.target
            remaining -= travel_time
            fresh = self._new_leg()
            state.target = fresh.target
            state.speed = fresh.speed
            state.pause_remaining = self.pause_time
            if travel_time == 0.0 and self.pause_time == 0.0:
                break  # degenerate zero-length leg: avoid spinning in place
        return position


@dataclass
class _WalkState:
    """Per-node heading state of the random-walk model."""

    heading: float
    until_turn: float


class RandomWalkMobility(MobilityModel):
    """Constant-speed random walk with periodic heading changes.

    Args:
        speed: Travel speed in m/s.
        turn_interval: Seconds between uniform heading redraws.
    """

    def __init__(self, speed: float = 5.0, turn_interval: float = 5.0) -> None:
        if speed <= 0:
            raise ConfigurationError("speed must be positive")
        if turn_interval <= 0:
            raise ConfigurationError("turn_interval must be positive")
        self.speed = speed
        self.turn_interval = turn_interval
        self._area: Optional[MobilityArea] = None
        self._rng: Optional[Random] = None
        self._states: Dict[int, _WalkState] = {}

    def bind(self, positions: Dict[int, Position], area: MobilityArea,
             rng: Random) -> None:
        """Draw an initial heading for every node (sorted-id order)."""
        self._area = area
        self._rng = rng
        self._states = {
            node_id: _WalkState(heading=rng.uniform(0.0, 2.0 * math.pi),
                                until_turn=self.turn_interval)
            for node_id in sorted(positions)
        }

    def advance(self, node_id: int, position: Position, dt: float) -> Position:
        """Walk ``dt`` seconds, turning on schedule and reflecting at borders."""
        state = self._states[node_id]
        assert self._area is not None and self._rng is not None
        remaining = dt
        x, y = position.x, position.y
        while remaining > 0:
            step_time = min(remaining, state.until_turn)
            distance = self.speed * step_time
            x += distance * math.cos(state.heading)
            y += distance * math.sin(state.heading)
            x, state.heading = _reflect(x, self._area.min_x, self._area.max_x,
                                        state.heading, axis="x")
            y, state.heading = _reflect(y, self._area.min_y, self._area.max_y,
                                        state.heading, axis="y")
            state.until_turn -= step_time
            remaining -= step_time
            if state.until_turn <= 0:
                state.heading = self._rng.uniform(0.0, 2.0 * math.pi)
                state.until_turn = self.turn_interval
        return Position(x=x, y=y)


@dataclass
class _ManhattanState:
    """Per-node street state of the Manhattan-grid model.

    ``direction`` is a unit axis vector — (±1, 0) travels along a horizontal
    street, (0, ±1) along a vertical one; the cross coordinate is snapped
    exactly onto its street line at bind time and never drifts.
    """

    direction: Tuple[int, int]
    to_next: float
    pause_remaining: float = 0.0


class ManhattanGridMobility(MobilityModel):
    """Manhattan-grid movement: streets, intersections, probabilistic turns.

    The movement area is overlaid with vertical streets at ``block_size``
    intervals from its left edge and horizontal streets at ``block_size``
    intervals from its bottom edge.  Each node is snapped onto its nearest
    street at bind time and then travels along streets at constant ``speed``.
    At every intersection the node pauses ``pause_time`` seconds and draws
    its next direction: straight with probability ``1 - turn_prob``, else
    left or right with equal probability (a turn that would leave the street
    grid falls back to the nearest legal alternative, reversing only at a
    dead end).  One RNG draw per intersection keeps trajectories cheap and
    bit-reproducible.

    Args:
        speed: Travel speed in m/s.
        block_size: Street spacing in metres (one city block).
        pause_time: Pause at each intersection in seconds (a traffic stop).
        turn_prob: Probability of turning (left or right combined) at an
            intersection.
    """

    def __init__(self, speed: float = 5.0, block_size: float = 100.0,
                 pause_time: float = 0.0, turn_prob: float = 0.25) -> None:
        if speed <= 0:
            raise ConfigurationError("speed must be positive")
        if block_size <= 0 or not math.isfinite(block_size):
            raise ConfigurationError(
                f"block_size must be positive and finite, got {block_size!r}")
        if pause_time < 0:
            raise ConfigurationError("pause_time must be non-negative")
        if not 0.0 <= turn_prob <= 1.0:
            raise ConfigurationError(
                f"turn_prob must be within [0, 1], got {turn_prob!r}")
        self.speed = speed
        self.block_size = block_size
        self.pause_time = pause_time
        self.turn_prob = turn_prob
        self._area: Optional[MobilityArea] = None
        self._rng: Optional[Random] = None
        self._lines_x = 0  # vertical streets are x-lines 0.._lines_x
        self._lines_y = 0  # horizontal streets are y-lines 0.._lines_y
        self._states: Dict[int, _ManhattanState] = {}
        # Bind-time snapped positions, consumed by the first advance() per node.
        self._snapped: Dict[int, Position] = {}

    def bind(self, positions: Dict[int, Position], area: MobilityArea,
             rng: Random) -> None:
        """Snap every node onto its nearest street (sorted-id order).

        Raises:
            ConfigurationError: If the area spans less than one block in
                either dimension (no intersections to turn at).
        """
        self._lines_x = math.floor(area.width / self.block_size)
        self._lines_y = math.floor(area.height / self.block_size)
        if self._lines_x < 1 or self._lines_y < 1:
            raise ConfigurationError(
                f"area {area.width:g}x{area.height:g} m spans less than one "
                f"{self.block_size:g} m block per dimension")
        self._area = area
        self._rng = rng
        self._states = {}
        self._snapped = {}
        for node_id in sorted(positions):
            self._states[node_id] = self._snap(node_id, positions[node_id])

    def _snap(self, node_id: int, position: Position) -> _ManhattanState:
        """Place a node on its nearest street and draw its initial direction.

        The snapped position is not written back into the caller's mapping —
        the first :meth:`advance` returns a position on the street grid, so
        the node visibly steps onto its street at the first update.
        """
        assert self._area is not None and self._rng is not None
        area, block = self._area, self.block_size
        rel_x = position.x - area.min_x
        rel_y = position.y - area.min_y
        i = min(max(round(rel_x / block), 0), self._lines_x)
        j = min(max(round(rel_y / block), 0), self._lines_y)
        on_vertical = abs(rel_x - i * block) <= abs(rel_y - j * block)
        sign = 1 if self._rng.random() < 0.5 else -1
        if on_vertical:
            # Travel along x-line i, moving in y; clamp y onto the street span.
            snapped = Position(
                x=area.min_x + i * block,
                y=min(max(position.y, area.min_y),
                      area.min_y + self._lines_y * block),
            )
            direction = (0, sign)
        else:
            snapped = Position(
                x=min(max(position.x, area.min_x),
                      area.min_x + self._lines_x * block),
                y=area.min_y + j * block,
            )
            direction = (sign, 0)
        direction, to_next = self._first_leg(snapped, direction)
        state = _ManhattanState(direction=direction, to_next=to_next)
        # Remember the exact snapped position; advance() starts from it
        # rather than the raw bind position, so the cross coordinate is a
        # street line from the first step onward.
        self._snapped[node_id] = snapped
        return state

    def _first_leg(self, position: Position,
                   direction: Tuple[int, int]) -> Tuple[Tuple[int, int], float]:
        """Distance to the next street crossing, flipping a dead-end heading."""
        assert self._area is not None
        block = self.block_size
        if direction[0] == 0:
            rel = position.y - self._area.min_y
            count = self._lines_y
        else:
            rel = position.x - self._area.min_x
            count = self._lines_x
        axis_sign = direction[0] + direction[1]
        if axis_sign > 0:
            next_line = math.floor(rel / block + 1e-9) + 1
            if next_line > count:
                direction = (-direction[0], -direction[1])
                return self._first_leg(position, direction)
            return direction, next_line * block - rel
        next_line = math.ceil(rel / block - 1e-9) - 1
        if next_line < 0:
            direction = (-direction[0], -direction[1])
            return self._first_leg(position, direction)
        return direction, rel - next_line * block

    def advance(self, node_id: int, position: Position, dt: float) -> Position:
        """Travel ``dt`` seconds along streets, turning at intersections."""
        state = self._states[node_id]
        assert self._area is not None and self._rng is not None
        # The first advance starts from the bind-time snapped position.
        snapped = self._snapped.pop(node_id, None)
        if snapped is not None:
            position = snapped
        remaining = dt
        while remaining > 0:
            if state.pause_remaining > 0:
                consumed = min(state.pause_remaining, remaining)
                state.pause_remaining -= consumed
                remaining -= consumed
                continue
            step = self.speed * remaining
            if step < state.to_next:
                dx, dy = state.direction
                position = Position(x=position.x + dx * step,
                                    y=position.y + dy * step)
                state.to_next -= step
                break
            # Intersection reached within this step: arrive exactly on the
            # crossing (re-derived from line indices so float error cannot
            # accumulate over many blocks), pause, then draw the next turn.
            remaining -= state.to_next / self.speed
            position = self._arrive(position, state)
            state.direction = self._choose_direction(position, state.direction)
            state.to_next = self.block_size
            state.pause_remaining = self.pause_time
        return position

    def _arrive(self, position: Position, state: _ManhattanState) -> Position:
        """The exact intersection at the end of the node's current leg."""
        assert self._area is not None
        area, block = self._area, self.block_size
        dx, dy = state.direction
        x = position.x + dx * state.to_next
        y = position.y + dy * state.to_next
        i = min(max(round((x - area.min_x) / block), 0), self._lines_x)
        j = min(max(round((y - area.min_y) / block), 0), self._lines_y)
        return Position(x=area.min_x + i * block, y=area.min_y + j * block)

    def _choose_direction(self, position: Position,
                          direction: Tuple[int, int]) -> Tuple[int, int]:
        """Draw the next direction at an intersection (one RNG draw).

        Preference order given the draw: chosen option first, then the other
        lateral turn, then straight, then reverse — the first one whose next
        intersection stays on the street grid wins, so only a dead-end corner
        forces a U-turn.
        """
        assert self._area is not None and self._rng is not None
        dx, dy = direction
        straight = (dx, dy)
        left = (-dy, dx)
        right = (dy, -dx)
        back = (-dx, -dy)
        u = self._rng.random()
        if u < 1.0 - self.turn_prob:
            ranked = (straight, left, right, back)
        elif u < 1.0 - self.turn_prob / 2.0:
            ranked = (left, right, straight, back)
        else:
            ranked = (right, left, straight, back)
        area, block = self._area, self.block_size
        i = round((position.x - area.min_x) / block)
        j = round((position.y - area.min_y) / block)
        for candidate in ranked:
            if (0 <= i + candidate[0] <= self._lines_x
                    and 0 <= j + candidate[1] <= self._lines_y):
                return candidate
        raise ConfigurationError(
            "street grid has no legal direction; area degenerate")  # pragma: no cover


def _reflect(value: float, low: float, high: float, heading: float,
             axis: str) -> Tuple[float, float]:
    """Reflect ``value`` back into [low, high], mirroring the heading component.

    A single bounce per step is exact as long as one step cannot cross the
    whole area, which holds for any sane speed/turn-interval combination.
    """
    if value < low:
        value = low + (low - value)
    elif value > high:
        value = high - (value - high)
    else:
        return value, heading
    value = min(max(value, low), high)  # pathological step > area size
    if axis == "x":
        heading = math.pi - heading
    else:
        heading = -heading
    return value, heading
