"""Named topology registry.

Mirrors :mod:`repro.transport.registry` for topologies: every topology family
(the paper's h-hop chain, 21-node grid and random field) registers a builder
under a short name, so experiment descriptions can address a topology as
``("chain", {"hops": 7})`` instead of importing a builder function.  The
declarative :class:`repro.experiments.study.SweepSpec` resolves topologies
through this registry.

Registering a new topology family::

    from repro.topology.registry import TOPOLOGIES, TopologyProfile

    TOPOLOGIES.register(TopologyProfile(
        name="star",
        builder=star_topology,           # (**params) -> Topology
    ))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.registry import NamedRegistry
from repro.topology.backbone import backbone_topology
from repro.topology.base import Topology
from repro.topology.chain import chain_topology
from repro.topology.grid import grid_topology
from repro.topology.random_topology import random_topology


@dataclass(frozen=True)
class TopologyProfile:
    """One registered topology family.

    Attributes:
        name: Canonical registry key (``"chain"``, ``"grid"``, ``"random"``).
        builder: Callable returning a :class:`Topology` from keyword params.
    """

    name: str
    builder: Callable[..., Topology]

    def build(self, **params: object) -> Topology:
        """Build a topology instance from this family."""
        return self.builder(**params)


#: Every topology family, by name.
TOPOLOGIES = NamedRegistry("topology")


# ======================================================================
# Built-in registrations: the paper's chain (Fig. 1), grid (Fig. 15) and
# random field (Sec. 4.4.2), and a wired spine of gateways serving wireless
# chain cells.
# ======================================================================
TOPOLOGIES.register(TopologyProfile(name="chain", builder=chain_topology))
TOPOLOGIES.register(TopologyProfile(name="grid", builder=grid_topology))
TOPOLOGIES.register(TopologyProfile(name="random", builder=random_topology))
TOPOLOGIES.register(TopologyProfile(name="backbone", builder=backbone_topology))
