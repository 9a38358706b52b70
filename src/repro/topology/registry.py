"""Named topology registry.

Mirrors :mod:`repro.transport.registry` for topologies: every topology family
(the paper's h-hop chain, 21-node grid and random field) registers a builder
under a short name, so experiment descriptions can address a topology as
``("chain", {"hops": 7})`` instead of importing a builder function.  The
declarative :class:`repro.experiments.study.SweepSpec` resolves topologies
through this registry, and scenario presets are generated from it.

Registering a new topology family::

    from repro.topology.registry import TOPOLOGIES, TopologyProfile

    TOPOLOGIES.register(TopologyProfile(
        name="star",
        builder=star_topology,           # (**params) -> Topology
        description="hub-and-spoke star",
    ))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

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
        description: One-line human description.
        preset_prefix: When set, the scenario preset registry generates a
            ``<prefix>-<variant>-<bandwidth>`` preset for this family per
            registered transport and paper bandwidth; ``None`` opts the
            family out of preset generation.
        preset_params: Builder parameters those presets use (e.g. the
            paper's focal 7-hop chain).
    """

    name: str
    builder: Callable[..., Topology]
    description: str = ""
    preset_prefix: Optional[str] = None
    preset_params: Mapping[str, object] = field(default_factory=dict)

    def build(self, **params: object) -> Topology:
        """Build a topology instance from this family."""
        return self.builder(**params)


#: Every topology family, by name.
TOPOLOGIES = NamedRegistry("topology")


# ======================================================================
# Built-in registrations: the three topologies the paper evaluates.
# ======================================================================
TOPOLOGIES.register(TopologyProfile(
    name="chain",
    builder=chain_topology,
    description="h-hop chain, 200 m spacing, one end-to-end flow (Fig. 1)",
    preset_prefix="chain7",
    preset_params={"hops": 7},
))

TOPOLOGIES.register(TopologyProfile(
    name="grid",
    builder=grid_topology,
    description="7x3 grid with three horizontal and three vertical flows (Fig. 15)",
    preset_prefix="grid",
))

TOPOLOGIES.register(TopologyProfile(
    name="random",
    builder=random_topology,
    description="uniform random field with random multihop flows (Sec. 4.4.2)",
    preset_prefix="random",
    preset_params={"node_count": 120, "area": (2500.0, 1000.0),
                   "flow_count": 10, "seed": 7},
))

TOPOLOGIES.register(TopologyProfile(
    name="backbone",
    builder=backbone_topology,
    description="wired Ethernet spine of M gateways, each serving a K-hop "
                "wireless chain cell",
    # Hand-registered presets only (repro.experiments.scenarios); the
    # auto-generated <prefix>-<variant>-<bandwidth> matrix would multiply a
    # heterogeneous scenario that only makes sense with static routing.
    preset_prefix=None,
))
