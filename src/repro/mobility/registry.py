"""Named mobility-profile registry.

Mirrors :mod:`repro.transport.registry` and :mod:`repro.topology.registry` for
mobility models: every model family registers a builder under a short name so
that a scenario can select movement declaratively
(``ScenarioConfig(mobility="random-waypoint")``) and the Study API can sweep
mobility parameters like any other config axis
(``axes={"mobility_speed": [1, 5, 20]}``).

Registering a custom model::

    from repro.mobility.registry import MOBILITY_MODELS, MobilityProfile

    MOBILITY_MODELS.register(MobilityProfile(
        name="gauss-markov",
        builder=lambda speed, pause: GaussMarkovMobility(speed, alpha=0.8),
    ))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.registry import NamedRegistry
from repro.mobility.base import MobilityModel
from repro.mobility.models import (
    ManhattanGridMobility,
    RandomWalkMobility,
    RandomWaypointMobility,
    StaticMobility,
)


@dataclass(frozen=True)
class MobilityProfile:
    """One registered mobility-model family.

    Attributes:
        name: Canonical registry key (``"static"``, ``"random-waypoint"``,
            ``"random-walk"``).
        builder: Callable ``(speed, pause) -> MobilityModel``.  ``speed`` and
            ``pause`` are the two uniform scenario knobs
            (:attr:`~repro.experiments.config.ScenarioConfig.mobility_speed` /
            ``mobility_pause``); each family maps them onto its own
            parameters (random walk, for instance, reads ``pause`` as its
            turn interval).
        default_speed: ``speed`` used when the scenario does not set one.
        default_pause: ``pause`` used when the scenario does not set one.
    """

    name: str
    builder: Callable[[float, float], MobilityModel]
    default_speed: float = 5.0
    default_pause: float = 2.0

    def build(self, speed: Optional[float] = None,
              pause: Optional[float] = None) -> MobilityModel:
        """Build a model instance, filling unset knobs with the defaults."""
        effective_speed = self.default_speed if speed is None else speed
        effective_pause = self.default_pause if pause is None else pause
        return self.builder(effective_speed, effective_pause)


#: Every mobility-model family, by name.
MOBILITY_MODELS = NamedRegistry("mobility model")


# ======================================================================
# Built-in registrations.
# ======================================================================
# No movement: the paper's baseline and the config default.
MOBILITY_MODELS.register(MobilityProfile(
    name="static",
    builder=lambda speed, pause: StaticMobility(),
))

MOBILITY_MODELS.register(MobilityProfile(
    name="random-waypoint",
    # min_speed is a tenth of the configured speed, floored at 0.1 m/s but
    # never above the configured speed itself, so every positive
    # mobility_speed that passes config validation builds a valid model.
    builder=lambda speed, pause: RandomWaypointMobility(
        min_speed=min(speed, max(0.1, speed / 10.0)), max_speed=speed,
        pause_time=pause,
    ),
    default_speed=10.0,
    default_pause=2.0,
))

MOBILITY_MODELS.register(MobilityProfile(
    name="random-walk",
    builder=lambda speed, pause: RandomWalkMobility(
        speed=speed, turn_interval=pause,
    ),
    default_speed=5.0,
    default_pause=5.0,
))

MOBILITY_MODELS.register(MobilityProfile(
    name="manhattan",
    # pause maps onto the per-intersection stop; block size stays at the
    # model's 100 m city-block default.
    builder=lambda speed, pause: ManhattanGridMobility(
        speed=speed, pause_time=pause,
    ),
    default_speed=8.0,
    default_pause=1.0,
))
