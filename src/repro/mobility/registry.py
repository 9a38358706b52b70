"""Named mobility-profile registry.

Mirrors :mod:`repro.transport.registry` and :mod:`repro.topology.registry` for
mobility models: every model family registers a builder under a short name so
that a scenario can select movement declaratively
(``ScenarioConfig(mobility="random-waypoint")``) and the Study API can sweep
mobility parameters like any other config axis
(``axes={"mobility_speed": [1, 5, 20]}``).

Profiles that set :attr:`MobilityProfile.preset_tag` take part in scenario
preset generation: :mod:`repro.experiments.scenarios` emits a
``<topology>-<tag>-<variant>-<bandwidth>`` preset (e.g.
``chain7-rwp-vegas-2mbps``) for every registered transport, preset topology
and paper bandwidth.  Registering a new mobility model therefore also
registers its presets — no scenario-table change required.

Registering a custom model::

    from repro.mobility.registry import MOBILITY_MODELS, MobilityProfile

    MOBILITY_MODELS.register(MobilityProfile(
        name="gauss-markov",
        builder=lambda speed, pause: GaussMarkovMobility(speed, alpha=0.8),
        description="temporally correlated heading drift",
        preset_tag="gm",
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
        description: One-line human description (shown in the scenario
            catalog).
        preset_tag: Short tag used in generated scenario preset names;
            ``None`` opts the family out of preset generation (the static
            family opts out — the plain presets already are static).
        default_speed: ``speed`` used when the scenario does not set one.
        default_pause: ``pause`` used when the scenario does not set one.
    """

    name: str
    builder: Callable[[float, float], MobilityModel]
    description: str = ""
    preset_tag: Optional[str] = None
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
MOBILITY_MODELS.register(MobilityProfile(
    name="static",
    builder=lambda speed, pause: StaticMobility(),
    description="no movement; the paper's baseline (default)",
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
    description="travel to a uniform waypoint at uniform speed, pause, repeat",
    preset_tag="rwp",
    default_speed=10.0,
    default_pause=2.0,
))

MOBILITY_MODELS.register(MobilityProfile(
    name="random-walk",
    builder=lambda speed, pause: RandomWalkMobility(
        speed=speed, turn_interval=pause,
    ),
    description="constant-speed walk, uniform heading redraw every pause interval",
    preset_tag="rwalk",
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
    description="street-grid movement with probabilistic turns at intersections",
    preset_tag="mht",
    default_speed=8.0,
    default_pause=1.0,
))
