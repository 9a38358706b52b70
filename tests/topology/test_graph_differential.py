"""`ConnectivityGraph` against networkx, the library it replaced.

The oracle builds a ``networkx.Graph`` with the loops the topology code ran
when it was built on networkx — same candidate order, same ``add_edge`` order
— and every answer the simulator reads off the graph has to match, ties
between equally short paths included: static routes (and with them the
``backbone2x7-newreno`` golden trace) are pinned to which one wins.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import TopologyError
from repro.phy.propagation import Position, RangePropagationModel
from repro.phy.spatial import GridIndex
from repro.topology.base import (
    _GRID_GRAPH_THRESHOLD,
    Topology,
    all_next_hop_tables,
)

nx = pytest.importorskip("networkx")

PROPAGATION = RangePropagationModel()


def networkx_graph(topology: Topology):
    """The graph as it was built before: all-pairs scan, grid sweep when large."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.positions)
    positions = topology.positions
    if len(positions) > _GRID_GRAPH_THRESHOLD:
        grid = GridIndex(cell_size=PROPAGATION.transmission_range)
        for node, position in positions.items():
            grid.insert(node, position)
        for a, position in positions.items():
            for b in grid.neighborhood(a):
                if b >= a and PROPAGATION.can_receive(position.distance_to(positions[b])):
                    graph.add_edge(a, b)
        return graph
    ids = list(positions)
    for index, a in enumerate(ids):
        for b in ids[index + 1:]:
            if PROPAGATION.can_receive(positions[a].distance_to(positions[b])):
                graph.add_edge(a, b)
    return graph


@st.composite
def placements(draw) -> Topology:
    """Random fields on both sides of the grid threshold, from dense (connected,
    many equally short paths) to sparse (several components, isolated nodes)."""
    node_count = draw(st.one_of(
        st.integers(2, 40),
        st.integers(_GRID_GRAPH_THRESHOLD - 2, _GRID_GRAPH_THRESHOLD + 40)))
    metres_per_node = draw(st.sampled_from([40.0, 90.0, 150.0, 260.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    side = metres_per_node * node_count ** 0.5
    ids = list(range(node_count))
    rng.shuffle(ids)            # insertion order is not id order
    return Topology(name="placement", positions={
        node: Position(rng.uniform(0, 2 * side), rng.uniform(0, side / 2)) for node in ids})


@settings(max_examples=60, deadline=None)
@given(topology=placements(), picks=st.randoms(use_true_random=False))
def test_every_answer_matches_networkx(topology, picks):
    graph = topology.connectivity_graph(PROPAGATION)
    oracle = networkx_graph(topology)
    nodes = list(topology.positions)

    assert graph.nodes == list(oracle.nodes)
    assert graph.number_of_edges() == oracle.number_of_edges()
    assert all(graph.has_edge(a, b) == oracle.has_edge(a, b) for a in nodes for b in nodes)
    assert topology.is_connected(PROPAGATION) == nx.is_connected(oracle)

    for source in picks.sample(nodes, min(5, len(nodes))):
        distances = nx.single_source_shortest_path_length(oracle, source)
        for destination in picks.sample(nodes, min(5, len(nodes))):
            if destination in distances:
                assert topology.hop_count(source, destination, PROPAGATION) == \
                    distances[destination]
            else:
                with pytest.raises(TopologyError):
                    topology.hop_count(source, destination, PROPAGATION)
        # The ball random_topology._draw_flows rejects destinations from.
        for cutoff in (0, 1, 2, 3):
            ball = graph.reach(source, cutoff=cutoff)
            assert {node: hops for node, (hops, _) in ball.items()} == \
                nx.single_source_shortest_path_length(oracle, source, cutoff=cutoff)

    expected_tables = {
        node: {destination: path[1]
               for destination, path in nx.single_source_shortest_path(oracle, node).items()
               if destination != node}
        for node in oracle.nodes}
    assert all_next_hop_tables(graph) == expected_tables


def test_lattice_ties_break_as_in_networkx():
    # A 3x3 lattice at 200 m: opposite corners are joined by six equally short
    # paths, so this table is decided by the tie-break alone.
    topology = Topology(name="lattice", positions={
        3 * row + column: Position(200.0 * column, 200.0 * row)
        for row in range(3) for column in range(3)})
    tables = all_next_hop_tables(topology.connectivity_graph(PROPAGATION))
    assert tables[0][8] == 1 and tables[8][0] == 5
    assert tables[0][8] == nx.single_source_shortest_path(networkx_graph(topology), 0)[8][1]


def test_an_unknown_source_reaches_nothing():
    topology = Topology(name="pair", positions={0: Position(0, 0), 1: Position(100, 0)})
    assert topology.connectivity_graph(PROPAGATION).reach(7) == {}
    with pytest.raises(TopologyError):
        topology.hop_count(7, 0)
