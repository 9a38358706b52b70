"""Mobility models by name.

Every model family is a builder under its canonical name in the
:data:`MOBILITY_MODELS` dict, so that a scenario can select movement
declaratively (``ScenarioConfig(mobility="random-waypoint")``) and the Study
API can sweep mobility parameters like any other config axis
(``axes={"mobility_speed": [1, 5, 20]}``).

A builder takes the two uniform scenario knobs as keywords, ``speed`` (m/s)
and ``pause`` (s)
(:attr:`~repro.experiments.config.ScenarioConfig.mobility_speed` /
``mobility_pause``), and maps them onto its own model's parameters (random
walk, for instance, reads ``pause`` as its turn interval).  Its keyword
defaults are the values used when the scenario does not set a knob.  Adding
a model means adding an entry to the dict literal::

    "gauss-markov": lambda speed=5.0, pause=2.0: GaussMarkovMobility(
        speed, alpha=0.8),
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.mobility.base import MobilityModel
from repro.mobility.models import (
    ManhattanGridMobility,
    RandomWalkMobility,
    RandomWaypointMobility,
    StaticMobility,
)

#: Every mobility-model family, by canonical name.
MOBILITY_MODELS: Dict[str, Callable[..., MobilityModel]] = {
    # No movement: the paper's baseline and the config default.
    "static": lambda speed=5.0, pause=2.0: StaticMobility(),
    # min_speed is a tenth of the configured speed, floored at 0.1 m/s but
    # never above the configured speed itself, so every positive
    # mobility_speed that passes config validation builds a valid model.
    "random-waypoint": lambda speed=10.0, pause=2.0: RandomWaypointMobility(
        min_speed=min(speed, max(0.1, speed / 10.0)), max_speed=speed,
        pause_time=pause,
    ),
    "random-walk": lambda speed=5.0, pause=5.0: RandomWalkMobility(
        speed=speed, turn_interval=pause,
    ),
    # pause maps onto the per-intersection stop; block size stays at the
    # model's 100 m city-block default.
    "manhattan": lambda speed=8.0, pause=1.0: ManhattanGridMobility(
        speed=speed, pause_time=pause,
    ),
}
