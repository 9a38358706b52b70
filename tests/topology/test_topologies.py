"""Tests for the chain, grid and random topologies and graph helpers."""

from __future__ import annotations

import pytest

from repro.core.errors import TopologyError
from repro.phy.propagation import RangePropagationModel
from repro.topology.base import Topology, all_next_hop_tables, shortest_path_next_hops
from repro.topology.chain import chain_topology, hidden_terminal_pairs
from repro.topology.grid import GRID_COLUMNS, GRID_ROWS, grid_topology, node_id_at
from repro.topology.random_topology import random_topology


class TestChainTopology:
    def test_node_count_and_spacing(self):
        topology = chain_topology(hops=7)
        assert topology.node_count == 8
        assert topology.positions[3].x == pytest.approx(600.0)
        assert all(p.y == 0.0 for p in topology.positions.values())

    def test_single_flow_end_to_end(self):
        topology = chain_topology(hops=5)
        assert topology.flows == [(0, 5)]

    def test_invalid_hop_count(self):
        with pytest.raises(TopologyError):
            chain_topology(hops=0)

    def test_connectivity_is_a_line(self):
        topology = chain_topology(hops=4)
        graph = topology.connectivity_graph()
        # Each node connects only to its immediate neighbours at 200 m spacing.
        assert graph.number_of_edges() == 4
        assert topology.hop_count(0, 4) == 4

    def test_chain_is_connected(self):
        assert chain_topology(hops=10).is_connected()

    def test_hidden_terminal_pairs(self):
        pairs = hidden_terminal_pairs(7)
        assert (0, 3) in pairs
        assert (4, 7) in pairs
        assert all(hidden - transmitter == 3 for transmitter, hidden in pairs)

    def test_no_hidden_terminals_in_short_chain(self):
        assert hidden_terminal_pairs(2) == []


class TestGridTopology:
    def test_21_nodes(self):
        topology = grid_topology()
        assert topology.node_count == GRID_COLUMNS * GRID_ROWS == 21

    def test_six_flows_three_horizontal_three_vertical(self):
        topology = grid_topology()
        assert len(topology.flows) == 6
        horizontal = topology.flows[:3]
        vertical = topology.flows[3:]
        for row, (source, destination) in enumerate(horizontal):
            assert source == node_id_at(row, 0)
            assert destination == node_id_at(row, GRID_COLUMNS - 1)
        for source, destination in vertical:
            assert destination - source == (GRID_ROWS - 1) * GRID_COLUMNS

    def test_adjacent_nodes_200m_apart(self):
        topology = grid_topology()
        a = topology.positions[node_id_at(0, 0)]
        b = topology.positions[node_id_at(0, 1)]
        c = topology.positions[node_id_at(1, 0)]
        assert a.distance_to(b) == pytest.approx(200.0)
        assert a.distance_to(c) == pytest.approx(200.0)

    def test_grid_is_connected(self):
        assert grid_topology().is_connected()

    def test_horizontal_flow_is_six_hops(self):
        topology = grid_topology()
        assert topology.hop_count(*topology.flows[0]) == 6


class TestRandomTopology:
    def test_scaled_down_generation_is_connected(self):
        topology = random_topology(node_count=40, area=(1200.0, 600.0),
                                   flow_count=4, seed=3)
        assert topology.node_count == 40
        assert topology.is_connected()
        assert len(topology.flows) == 4

    def test_same_seed_reproduces_topology(self):
        a = random_topology(node_count=30, area=(1000.0, 500.0), flow_count=3, seed=9)
        b = random_topology(node_count=30, area=(1000.0, 500.0), flow_count=3, seed=9)
        assert a.positions == b.positions
        assert a.flows == b.flows

    def test_different_seeds_differ(self):
        a = random_topology(node_count=30, area=(1000.0, 500.0), flow_count=3, seed=1)
        b = random_topology(node_count=30, area=(1000.0, 500.0), flow_count=3, seed=2)
        assert a.positions != b.positions

    def test_flows_have_minimum_hop_distance(self):
        topology = random_topology(node_count=40, area=(1500.0, 600.0),
                                   flow_count=4, seed=5, min_flow_hops=2)
        for source, destination in topology.flows:
            assert topology.hop_count(source, destination) >= 2

    def test_flow_endpoints_are_distinct_nodes(self):
        topology = random_topology(node_count=40, area=(1200.0, 600.0),
                                   flow_count=5, seed=11)
        endpoints = [node for flow in topology.flows for node in flow]
        assert len(endpoints) == len(set(endpoints))

    def test_each_placement_builds_its_connectivity_graph_once(self, monkeypatch):
        """The connectivity check and the flow draw share one graph."""
        built = []
        original = Topology.connectivity_graph

        def counting(topology, *args, **kwargs):
            built.append(topology)    # kept alive, so no id is reused
            return original(topology, *args, **kwargs)

        monkeypatch.setattr(Topology, "connectivity_graph", counting)
        # Sparse enough that several placements come out disconnected.
        topology = random_topology(node_count=30, area=(1500.0, 900.0),
                                   flow_count=3, seed=2, max_attempts=200)
        assert len(topology.flows) == 3 and len(built) > 1
        assert len({id(placed) for placed in built}) == len(built)
        assert built[-1] is topology

    def test_impossible_topology_raises(self):
        # Two nodes on a huge area are essentially never connected.
        with pytest.raises(TopologyError):
            random_topology(node_count=2, area=(50_000.0, 50_000.0), flow_count=1,
                            seed=1, max_attempts=3)

    def test_nodes_inside_area(self):
        width, height = 900.0, 400.0
        topology = random_topology(node_count=30, area=(width, height), flow_count=2, seed=4)
        for position in topology.positions.values():
            assert 0.0 <= position.x <= width
            assert 0.0 <= position.y <= height


class TestGraphHelpers:
    def test_shortest_path_next_hops_on_chain(self):
        topology = chain_topology(hops=4)
        graph = topology.connectivity_graph()
        hops_from_0 = shortest_path_next_hops(graph, 0)
        assert hops_from_0[4] == 1
        assert hops_from_0[1] == 1

    def test_all_next_hop_tables_cover_all_nodes(self):
        topology = chain_topology(hops=3)
        tables = all_next_hop_tables(topology.connectivity_graph())
        assert set(tables) == set(topology.node_ids)
        assert tables[3][0] == 2

    def test_hop_count_no_path_raises(self):
        positions = chain_topology(hops=1).positions
        positions[9] = type(positions[0])(x=10_000.0, y=10_000.0)
        topology = Topology(name="disconnected", positions=positions)
        with pytest.raises(TopologyError):
            topology.hop_count(0, 9)

    def test_interference_range_does_not_create_edges(self):
        # 400 m apart: sensed but not connected.
        topology = chain_topology(hops=2)
        graph = topology.connectivity_graph(RangePropagationModel())
        assert not graph.has_edge(0, 2)
