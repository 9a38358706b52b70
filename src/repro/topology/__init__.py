"""Topologies evaluated in the paper: h-hop chain, 21-node grid, random field.

Topology families are pluggable: :mod:`repro.topology.registry` makes them
addressable by name (``TOPOLOGIES.get("chain").build(hops=7)``), which is how the
declarative study API and the scenario presets resolve topologies.
"""

from repro.topology.backbone import backbone_tail, backbone_topology
from repro.topology.base import Topology, all_next_hop_tables, shortest_path_next_hops
from repro.topology.chain import chain_topology, hidden_terminal_pairs
from repro.topology.grid import grid_topology, node_id_at
from repro.topology.random_topology import random_topology
from repro.topology.registry import TOPOLOGIES, TopologyProfile

__all__ = [
    "backbone_tail",
    "backbone_topology",
    "TOPOLOGIES",
    "TopologyProfile",
    "Topology",
    "all_next_hop_tables",
    "shortest_path_next_hops",
    "chain_topology",
    "hidden_terminal_pairs",
    "grid_topology",
    "node_id_at",
    "random_topology",
]
