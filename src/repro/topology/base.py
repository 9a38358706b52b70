"""Topology descriptions and graph helpers.

A :class:`Topology` is a declarative description — node positions, the
``(source, destination)`` pairs of the traffic flows and, where not every
node is on the radio plane, the link plan — that the experiment runner turns
into a live network.  Graph helpers (connectivity,
shortest-path next hops) run on :class:`ConnectivityGraph`, a breadth-first
search over insertion-ordered adjacency lists, and are used both by the
static-routing baseline and by the random-topology generator's connectivity
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import TopologyError
from repro.link.plan import LinkPlan
from repro.phy.propagation import Position, RangePropagationModel

#: Node count above which :meth:`Topology.connectivity_graph` switches from
#: the all-pairs scan to the grid-indexed sweep.  Small placements stay on
#: the simple loop (less constant-factor overhead, trivially auditable).
_GRID_GRAPH_THRESHOLD = 128


class ConnectivityGraph:
    """Undirected graph over node ids: who is in transmission range of whom.

    Nodes and each node's neighbours are kept in insertion order and searched
    breadth-first level by level, so among equally short paths the one whose
    nodes were discovered first wins — the tie-break static routes are pinned
    to.
    """

    def __init__(self, nodes: Iterable[int]) -> None:
        self._adjacency: Dict[int, List[int]] = {node: [] for node in nodes}
        self._edge_count = 0

    def add_edge(self, a: int, b: int) -> None:
        """Connect two of the graph's nodes; call once per unordered pair."""
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        self._edge_count += 1

    @property
    def nodes(self) -> List[int]:
        """Node ids in insertion order."""
        return list(self._adjacency)

    def number_of_edges(self) -> int:
        """How many pairs are connected."""
        return self._edge_count

    def has_edge(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` are in transmission range of each other."""
        return b in self._adjacency.get(a, ())

    def reach(self, source: int, cutoff: Optional[int] = None) -> Dict[int, Tuple[int, int]]:
        """``{node: (hops, first hop)}`` for every node within ``cutoff`` hops.

        In discovery order, ``source`` first (0 hops, its own first hop);
        empty if ``source`` is not in the graph.
        """
        adjacency = self._adjacency
        found = {source: (0, source)} if source in adjacency else {}
        level = list(found)
        hops = 0
        while level and (cutoff is None or hops < cutoff):
            hops += 1
            next_level = []
            for node in level:
                first_hop = found[node][1]
                for neighbor in adjacency[node]:
                    if neighbor not in found:
                        found[neighbor] = (hops, neighbor if node == source else first_hop)
                        next_level.append(neighbor)
            level = next_level
        return found

    def is_connected(self) -> bool:
        """True if every node reaches every other (an empty graph does)."""
        nodes = self._adjacency
        return not nodes or len(self.reach(next(iter(nodes)))) == len(nodes)


@dataclass
class Topology:
    """Node placement plus traffic pattern.

    Attributes:
        name: Human-readable topology name.
        positions: Mapping from node id to :class:`Position`.
        flows: ``(source, destination)`` node pairs of the traffic flows
            (ordered; flow *i* in the paper's figures is ``flows[i-1]``
            here).  A :class:`~repro.experiments.workload.ScenarioSpec`
            without a workload lifts them into its flows.
        link_plan: Which nodes sit on which link layer (wired segments,
            gateways, subnets); ``None`` puts every node on the radio plane.
    """

    name: str
    positions: Dict[int, Position]
    flows: List[Tuple[int, int]] = field(default_factory=list)
    link_plan: Optional[LinkPlan] = None

    @property
    def node_count(self) -> int:
        """Number of nodes in the topology."""
        return len(self.positions)

    @property
    def node_ids(self) -> List[int]:
        """Sorted node identifiers."""
        return sorted(self.positions)

    def connectivity_graph(
        self, propagation: RangePropagationModel | None = None
    ) -> ConnectivityGraph:
        """Graph with an edge between every pair of nodes in transmission range.

        For large placements the candidate pairs come from a
        :class:`~repro.phy.spatial.GridIndex` with one transmission range per
        cell, so building the graph costs O(N·k) instead of O(N²); the edge
        set is identical to the all-pairs scan (the grid only prunes pairs
        strictly farther apart than the transmission range).
        """
        propagation = propagation or RangePropagationModel()
        graph = ConnectivityGraph(self.positions)
        positions = self.positions
        if len(positions) > _GRID_GRAPH_THRESHOLD:
            from repro.phy.spatial import GridIndex

            grid = GridIndex(cell_size=propagation.transmission_range)
            for node, position in positions.items():
                grid.insert(node, position)
            for a, position in positions.items():
                for b in grid.neighborhood(a):
                    if b < a:
                        continue  # each unordered pair once
                    if propagation.can_receive(position.distance_to(positions[b])):
                        graph.add_edge(a, b)
            return graph
        ids = list(positions)
        for index, a in enumerate(ids):
            for b in ids[index + 1:]:
                if propagation.can_receive(positions[a].distance_to(positions[b])):
                    graph.add_edge(a, b)
        return graph

    def is_connected(self, propagation: RangePropagationModel | None = None) -> bool:
        """True if every node can reach every other node over one or more hops."""
        return self.connectivity_graph(propagation).is_connected()

    def hop_count(
        self, source: int, destination: int,
        propagation: RangePropagationModel | None = None,
    ) -> int:
        """Shortest-path hop count between two nodes.

        Raises:
            TopologyError: If no path exists.
        """
        found = self.connectivity_graph(propagation).reach(source)
        if destination not in found:
            raise TopologyError(
                f"no path between {source} and {destination} in {self.name}")
        return found[destination][0]


def shortest_path_next_hops(graph: ConnectivityGraph, node: int) -> Dict[int, int]:
    """Next-hop table for ``node`` derived from shortest paths in ``graph``.

    Returns:
        Mapping from every reachable destination to the first hop on a
        shortest path towards it.
    """
    return {destination: first_hop
            for destination, (_, first_hop) in graph.reach(node).items()
            if destination != node}


def all_next_hop_tables(graph: ConnectivityGraph) -> Dict[int, Dict[int, int]]:
    """Next-hop tables for every node in the graph (for static routing)."""
    return {node: shortest_path_next_hops(graph, node) for node in graph.nodes}
