"""Integration tests for multi-flow topologies (grid / random, scaled down)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.bench_figures import FIGURES, reshape
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.study import SweepSpec, run_study
from repro.experiments.workload import ScenarioSpec
from repro.topology.grid import grid_topology
from repro.topology.random_topology import random_topology


def multiflow_config(variant, **overrides):
    defaults = dict(
        variant=variant, bandwidth_mbps=11.0, packet_target=180, max_sim_time=150.0,
        seed=5,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def multiflow_spec(topology, variant, **overrides):
    return ScenarioSpec(topology=topology,
                        config=multiflow_config(variant, **overrides))


class TestSmallGrid:
    @pytest.fixture(scope="class")
    def small_grid(self):
        # A 5x2 grid with two horizontal and one vertical flow keeps the test
        # fast while still exercising inter-flow contention.
        return grid_topology(columns=5, rows=2, vertical_flow_columns=(2,))

    def test_flows_deliver_and_fairness_defined(self, small_grid):
        result = Scenario(multiflow_spec(small_grid, "vegas")).run()
        assert result.delivered_packets >= 180
        assert len(result.flows) == 3
        assert 1.0 / 3.0 <= result.fairness_index <= 1.0

    def test_aggregate_is_sum_of_flows(self, small_grid):
        result = Scenario(multiflow_spec(small_grid, "newreno")).run()
        assert result.aggregate_goodput_bps == pytest.approx(
            sum(flow.goodput_bps for flow in result.flows)
        )

    def test_table3_reshape_layout(self, small_grid):
        # Table 3 / 4 as the figure table lays them out: {variant: {bandwidth: Jain}}.
        sweep = SweepSpec(
            name="small-grid", topology=small_grid,
            axes={"variant": ["vegas", "newreno"], "bandwidth_mbps": [11.0]},
            base=multiflow_config("vegas"),
        )
        table3 = next(figure for figure in FIGURES if figure.id == "table3")
        table = reshape(replace(table3, sweeps=(sweep,)),
                        run=lambda spec: run_study(spec, max_workers=1))
        assert list(table) == ["Vegas", "NewReno"]
        assert all(list(per_bandwidth) == [11.0] for per_bandwidth in table.values())
        assert all(1.0 / 3.0 <= table[v][11.0] <= 1.0 for v in table)


class TestSmallRandomTopology:
    @pytest.fixture(scope="class")
    def small_random(self):
        return random_topology(node_count=30, area=(1200.0, 600.0), flow_count=3, seed=13)

    def test_flows_deliver_on_random_topology(self, small_random):
        result = Scenario(multiflow_spec(small_random, "vegas",
                                         packet_target=120)).run()
        assert result.delivered_packets >= 120
        assert len(result.flows) == 3

    def test_ack_thinning_variant_runs_on_random_topology(self, small_random):
        result = Scenario(multiflow_spec(small_random,
                                         "vegas-at",
                                         packet_target=120)).run()
        assert result.delivered_packets >= 120

    def test_same_topology_reused_across_variants(self, small_random):
        # The comparison in the paper keeps placements and endpoints fixed.
        before = {nid: (p.x, p.y) for nid, p in small_random.positions.items()}
        Scenario(multiflow_spec(small_random, "vegas",
                                packet_target=60)).run()
        after = {nid: (p.x, p.y) for nid, p in small_random.positions.items()}
        assert before == after
