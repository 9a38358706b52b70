"""End-to-end tests of the metrics plane through the experiment harness.

Covers the PR's acceptance criteria: a metrics-enabled chain7 Vegas run
exports a non-empty cwnd time series that survives the
``ScenarioResult.to_dict()``/``from_dict()`` JSON round trip; disabled runs
carry the scalar snapshot but no series and schedule no sampler events; and
the Study API can aggregate arbitrary instruments across seeds.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.results import ScenarioResult
from repro.__main__ import main
from repro.experiments.runner import Scenario
from repro.experiments.scenarios import build_named_scenario
from repro.experiments.study import SweepSpec, run_study
from repro.experiments.workload import ScenarioSpec
from repro.topology.chain import chain_topology


@pytest.fixture(scope="module")
def metrics_result() -> ScenarioResult:
    """One metrics-enabled chain7 Vegas run shared by the read-only tests."""
    scenario = build_named_scenario("chain7-vegas-2mbps", packet_target=120,
                                    seed=3, metrics=True)
    return scenario.run()


class TestMetricsEnabledRun:
    def test_cwnd_series_is_non_empty(self, metrics_result):
        times, values = metrics_result.series("tcp.flow1.cwnd")
        assert len(values) > 0
        assert len(times) == len(values)
        assert times == sorted(times)
        assert all(v >= 1.0 for v in values)

    def test_rtt_and_queue_and_energy_series_collected(self, metrics_result):
        assert len(metrics_result.series("tcp.flow1.rtt")[0]) > 0
        assert len(metrics_result.series("mac.node3.queue_len")[0]) > 0
        energy_times, energy_values = metrics_result.series("phy.node3.energy")
        assert energy_values[-1] > 0
        # Cumulative energy never decreases.
        assert energy_values == sorted(energy_values)

    def test_round_trips_through_json(self, metrics_result):
        payload = json.dumps(metrics_result.to_dict())
        restored = ScenarioResult.from_dict(json.loads(payload))
        assert restored == metrics_result
        assert restored.series("tcp.flow1.cwnd") == metrics_result.series(
            "tcp.flow1.cwnd")

    def test_snapshot_consistent_with_headline_scalars(self, metrics_result):
        result = metrics_result
        assert result.metric_total("phy.node*.frames_sent") == result.mac_frames_sent
        assert result.metric_total("route.node*.false_route_failures") == (
            result.false_route_failures)
        assert result.metric_total("tcp.flow*.packets_delivered") == (
            result.delivered_packets)

    def test_app_layer_instruments(self, metrics_result):
        assert metrics_result.metrics["app.flow1.starts"] == 1


class TestMetricsDisabledRun:
    def test_snapshot_present_but_no_series(self):
        result = Scenario(ScenarioSpec(
            topology=chain_topology(hops=2),
            config=ScenarioConfig(variant="vegas", packet_target=40,
                                  max_sim_time=30.0),
        )).run()
        assert result.timeseries is None
        assert result.metrics  # scalar snapshot is always collected
        assert result.metric_total("mac.node*.data_tx_success") > 0

    def test_unknown_series_raises(self):
        result = Scenario(ScenarioSpec(
            topology=chain_topology(hops=2),
            config=ScenarioConfig(variant="vegas", packet_target=20,
                                  max_sim_time=20.0),
        )).run()
        with pytest.raises(KeyError):
            result.series("tcp.flow1.cwnd")

    def test_disabled_and_enabled_runs_agree_on_behaviour(self):
        """Metrics collection must observe, never perturb, the simulation."""
        spec = ScenarioSpec(
            topology=chain_topology(hops=3),
            config=ScenarioConfig(variant="vegas", packet_target=60, seed=7,
                                  max_sim_time=60.0),
        )
        plain = Scenario(spec).run()
        observed = Scenario(spec.with_config(metrics=True)).run()
        assert observed.delivered_packets == plain.delivered_packets
        assert observed.simulated_time == plain.simulated_time
        assert observed.mac_frames_sent == plain.mac_frames_sent
        assert [f.retransmissions for f in observed.flows] == (
            [f.retransmissions for f in plain.flows])


class TestStudyMetricSelection:
    def test_metric_interval_across_seeds(self):
        spec = SweepSpec(
            name="metric-selection",
            topology="chain",
            topology_params={"hops": 2},
            axes={"variant": ["vegas"]},
            base=ScenarioConfig(packet_target=30, max_sim_time=30.0),
            replications=2,
        )
        study = run_study(spec, max_workers=1)
        point = study.points[0]
        values = point.metric_values("mac.node*.data_tx_success")
        assert len(values) == 2
        assert all(v > 0 for v in values)
        interval = point.metric_interval("mac.node*.data_tx_success")
        assert interval.mean == pytest.approx(sum(values) / 2)

    def test_composes_with_nested(self):
        spec = SweepSpec(
            name="metric-nested",
            topology="chain",
            axes={"hops": [2, 3]},
            base=ScenarioConfig(variant="vegas", packet_target=20,
                                max_sim_time=20.0),
        )
        study = run_study(spec, max_workers=1)
        table = study.nested(
            "hops", leaf=lambda p: p.metric_interval("phy.node*.frames_sent").mean)
        assert set(table) == {2, 3}
        assert all(v > 0 for v in table.values())


class TestRunnerCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "chain7-vegas-2mbps" in out

    def test_metrics_export(self, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code = main([
            "run", "chain7-vegas-2mbps", "--metrics", "--packets", "40",
            "--seed", "3", "--max-sim-time", "30", "-o", str(out_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "time series collected" in printed
        data = json.loads(out_path.read_text())
        restored = ScenarioResult.from_dict(data)
        assert len(restored.series("tcp.flow1.cwnd")[0]) > 0

    def test_plain_run_without_metrics(self, capsys):
        assert main(["run", "chain7-vegas-2mbps", "--packets", "20",
                     "--max-sim-time", "20"]) == 0
        assert "time series" not in capsys.readouterr().out
