"""Named topology registry.

Mirrors :mod:`repro.transport.registry` for topologies: every topology family
(the paper's h-hop chain, 21-node grid and random field) registers a builder
under a short name, so experiment descriptions can address a topology as
``("chain", {"hops": 7})`` instead of importing a builder function.  The
declarative :class:`repro.experiments.study.SweepSpec` resolves topologies
through this registry, and scenario presets are generated from it.

Registering a new topology family::

    from repro.topology.registry import TopologyProfile, register_topology

    register_topology(TopologyProfile(
        name="star",
        builder=star_topology,           # (**params) -> Topology
        description="hub-and-spoke star",
    ))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional

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


_TOPOLOGIES = NamedRegistry("topology")


def register_topology(profile: TopologyProfile, replace: bool = False) -> TopologyProfile:
    """Register a topology family by name.

    Raises:
        ConfigurationError: On a duplicate name without ``replace``.
    """
    _TOPOLOGIES.register(profile, name=profile.name, replace=replace)
    return profile


def unregister_topology(name: str) -> None:
    """Remove a topology family (mainly for tests); unknown names are ignored."""
    _TOPOLOGIES.unregister(name)


def get_topology(name: str) -> TopologyProfile:
    """Resolve a topology family by name.

    Raises:
        ConfigurationError: If the name is unknown.
    """
    return _TOPOLOGIES.get(name)


def build_topology(name: str, **params: object) -> Topology:
    """Build a topology by family name and builder parameters."""
    return get_topology(name).build(**params)


def topology_names() -> List[str]:
    """Sorted canonical names of all registered topology families."""
    return _TOPOLOGIES.names()


def topology_profiles() -> List[TopologyProfile]:
    """All registered topology profiles, sorted by name."""
    return _TOPOLOGIES.values()


# ======================================================================
# Built-in registrations: the three topologies the paper evaluates.
# ======================================================================
register_topology(TopologyProfile(
    name="chain",
    builder=chain_topology,
    description="h-hop chain, 200 m spacing, one end-to-end flow (Fig. 1)",
    preset_prefix="chain7",
    preset_params={"hops": 7},
))

register_topology(TopologyProfile(
    name="grid",
    builder=grid_topology,
    description="7x3 grid with three horizontal and three vertical flows (Fig. 15)",
    preset_prefix="grid",
))

register_topology(TopologyProfile(
    name="random",
    builder=random_topology,
    description="uniform random field with random multihop flows (Sec. 4.4.2)",
    preset_prefix="random",
    preset_params={"node_count": 120, "area": (2500.0, 1000.0),
                   "flow_count": 10, "seed": 7},
))

register_topology(TopologyProfile(
    name="backbone",
    builder=backbone_topology,
    description="wired Ethernet spine of M gateways, each serving a K-hop "
                "wireless chain cell",
    # Hand-registered presets only (repro.experiments.scenarios); the
    # auto-generated <prefix>-<variant>-<bandwidth> matrix would multiply a
    # heterogeneous scenario that only makes sense with static routing.
    preset_prefix=None,
))
