"""Round-trip tests for result serialization (to_dict → JSON → from_dict)."""

from __future__ import annotations

import json

import pytest

from repro.core.statistics import ConfidenceInterval
from repro.experiments.config import ScenarioConfig
from repro.experiments.results import FlowResult, ScenarioResult
from repro.experiments.runner import Scenario
from repro.experiments.study import StudyResult, SweepSpec, run_study
from repro.experiments.workload import ScenarioSpec
from repro.phy.energy import EnergyReport
from repro.topology.chain import chain_topology


def json_round_trip(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def make_flow_result(with_ci: bool = True) -> FlowResult:
    return FlowResult(
        flow_id=1, source=0, destination=3, delivered_packets=120,
        goodput_bps=123456.789,
        goodput_ci=ConfidenceInterval(mean=15432.1, half_width=98.76) if with_ci else None,
        retransmissions=7, retransmissions_per_packet=7 / 120, timeouts=2,
        average_window=3.25,
    )


class TestConfidenceIntervalRoundTrip:
    def test_round_trip(self):
        ci = ConfidenceInterval(mean=0.123456789, half_width=0.000123, confidence=0.99)
        assert ConfidenceInterval.from_dict(json_round_trip(ci.to_dict())) == ci


class TestEnergyReportRoundTrip:
    def test_round_trip(self):
        report = EnergyReport(total_joules=123.456, transmit_joules=45.6,
                              delivered_kilobytes=789.0)
        assert EnergyReport.from_dict(json_round_trip(report.to_dict())) == report


class TestFlowResultRoundTrip:
    @pytest.mark.parametrize("with_ci", [True, False])
    def test_round_trip(self, with_ci):
        flow = make_flow_result(with_ci=with_ci)
        assert FlowResult.from_dict(json_round_trip(flow.to_dict())) == flow


class TestScenarioResultRoundTrip:
    def test_synthetic_round_trip(self):
        result = ScenarioResult(
            name="chain-3/Vegas/2Mbps", variant="Vegas", bandwidth_mbps=2.0,
            simulated_time=12.5, delivered_packets=120,
            flows=[make_flow_result(True), make_flow_result(False)],
            false_route_failures=3, link_layer_drop_probability=0.0048,
            mac_frames_sent=4321, reached_packet_target=True,
            energy=EnergyReport(100.0, 40.0, 175.2),
        )
        assert ScenarioResult.from_dict(json_round_trip(result.to_dict())) == result

    def test_real_run_round_trip(self):
        result = Scenario(ScenarioSpec(
            topology=chain_topology(hops=2),
            config=ScenarioConfig(variant="vegas",
                                  packet_target=25, max_sim_time=30.0),
        )).run()
        rebuilt = ScenarioResult.from_dict(json_round_trip(result.to_dict()))
        assert rebuilt == result
        assert rebuilt.aggregate_goodput_kbps == result.aggregate_goodput_kbps
        assert rebuilt.fairness_index == result.fairness_index


class TestStudyResultRoundTrip:
    def test_round_trip_including_variant_axis(self):
        spec = SweepSpec(
            name="roundtrip",
            topology="chain",
            axes={"variant": ["vegas", "newreno"], "hops": [2]},
            base=ScenarioConfig(packet_target=20, max_sim_time=25.0),
            replications=2,
        )
        study = run_study(spec, max_workers=1)
        rebuilt = StudyResult.from_dict(json_round_trip(study.to_dict()))
        assert rebuilt == study
        point = rebuilt.point(variant="vegas", hops=2)
        assert len(point.runs) == 2

    def test_save_and_load(self, tmp_path):
        spec = SweepSpec(
            name="saved",
            topology="chain",
            axes={"hops": [2]},
            base=ScenarioConfig(packet_target=15, max_sim_time=20.0),
        )
        study = run_study(spec, max_workers=1)
        path = study.save(tmp_path / "study.json")
        assert StudyResult.load(path) == study
