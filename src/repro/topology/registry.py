"""Topology families by name.

Every topology family (the paper's h-hop chain, 21-node grid and random
field, and a wired spine of gateways serving wireless chain cells) is a
builder under its canonical name in the :data:`TOPOLOGIES` dict, so
experiment descriptions can address a topology as ``("chain", {"hops": 7})``
instead of importing a builder function.  The declarative
:class:`repro.experiments.study.SweepSpec` resolves topologies through this
table; adding a family means adding an entry to the dict literal::

    "star": star_topology,               # (**params) -> Topology
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.topology.backbone import backbone_topology
from repro.topology.base import Topology
from repro.topology.chain import chain_topology
from repro.topology.grid import grid_topology
from repro.topology.random_topology import random_topology

#: Every topology family, by canonical name: a builder returning a
#: :class:`Topology` from keyword params.
TOPOLOGIES: Dict[str, Callable[..., Topology]] = {
    "chain": chain_topology,        # Fig. 1
    "grid": grid_topology,          # Fig. 15
    "random": random_topology,      # Sec. 4.4.2
    "backbone": backbone_topology,
}
