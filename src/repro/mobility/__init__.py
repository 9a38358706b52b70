"""Node mobility: models, the periodic position driver and the profile registry.

The paper evaluates *static* chain/grid/random topologies; this package opens
the orthogonal scenario axis of node movement and time-varying links.  It is
organised like the rest of the stack:

* :mod:`repro.mobility.base` — the :class:`MobilityModel` interface, the
  rectangular :class:`MobilityArea` models move within and the
  :class:`MobilityManager` that advances every node through periodic engine
  events and pushes changed positions into the wireless channel;
* :mod:`repro.mobility.models` — the built-in models (static,
  random waypoint, random walk, Manhattan grid);
* :mod:`repro.mobility.registry` — :data:`MOBILITY_MODELS`, the
  :class:`MobilityProfile` registry,
  mirroring :mod:`repro.transport.registry` and
  :mod:`repro.topology.registry`: scenario presets and
  :class:`~repro.experiments.study.SweepSpec` sweeps resolve mobility by name.

See ``docs/mobility.md`` for the design rationale and a worked example.
"""

from repro.mobility.base import MobilityArea, MobilityManager, MobilityModel
from repro.mobility.models import (
    ManhattanGridMobility,
    RandomWalkMobility,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.mobility.registry import MOBILITY_MODELS, MobilityProfile

__all__ = [
    "MobilityArea",
    "MobilityManager",
    "MobilityModel",
    "StaticMobility",
    "RandomWaypointMobility",
    "RandomWalkMobility",
    "ManhattanGridMobility",
    "MOBILITY_MODELS",
    "MobilityProfile",
]
