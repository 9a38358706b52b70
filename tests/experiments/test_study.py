"""Tests for the declarative Study/Sweep API and its parallel executor."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.tracing import Tracer
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.study import SweepSpec, run_study
from repro.experiments.workload import ScenarioSpec
from repro.topology.chain import chain_topology


def tiny_config(**overrides) -> ScenarioConfig:
    defaults = dict(packet_target=20, max_sim_time=25.0)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(
        name="tiny",
        topology="chain",
        axes={"variant": ["vegas", "newreno"], "hops": [2, 3]},
        base=tiny_config(),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_points_are_cartesian_in_axis_order(self):
        points = tiny_spec().points()
        assert len(points) == 4
        assert [p.values["hops"] for p in points] == [2, 3, 2, 3]
        assert [p.values["variant"] for p in points] == [
            "vegas", "vegas", "newreno", "newreno"]

    def test_axis_classification_config_vs_topology(self):
        spec = tiny_spec()
        assert spec.topology_axes == ("hops",)

    def test_variant_axis_accepts_registry_names(self):
        spec = tiny_spec(axes={"variant": ["vegas-at"], "hops": [2]})
        assert spec.points()[0].values["variant"] == "vegas-at"

    def test_seed_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(axes={"seed": [1, 2]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(axes={"hops": []})

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(topology="torus")

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(replications=0)

    def test_prebuilt_topology_with_topology_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(topology=chain_topology(hops=2))

    def test_seeds_follow_base_seed(self):
        spec = tiny_spec(axes={"hops": [2]}, base=tiny_config(seed=5),
                         replications=3)
        assert spec.seeds() == [5, 6, 7]
        spec = tiny_spec(axes={"hops": [2]}, replications=2, base_seed=40)
        assert spec.seeds() == [40, 41]

    def test_optimal_window_point_takes_the_default_clamp(self):
        # No clamp in the base config: the config default is the paper's.
        spec = tiny_spec(axes={"variant": ["newreno-optwin"], "hops": [2]})
        config = spec.config_for({"variant": "newreno-optwin", "hops": 2}, seed=9)
        assert config.newreno_max_cwnd == 3.0
        assert config.seed == 9

    def test_base_clamp_reaches_optimal_window_points(self):
        spec = tiny_spec(axes={"variant": ["newreno-optwin"], "hops": [2]},
                         base=tiny_config(newreno_max_cwnd=4.0))
        point = spec.points()[0].values
        assert spec.config_for(point, seed=1).newreno_max_cwnd == 4.0
        scenario = Scenario(spec.scenario_for(point, seed=1))
        assert scenario.senders[0].max_cwnd == 4.0

    def test_config_axis_sets_the_clamp(self):
        spec = tiny_spec(axes={"variant": ["newreno-optwin"],
                               "newreno_max_cwnd": [4.0], "hops": [2]})
        config = spec.config_for(spec.points()[0].values, seed=1)
        assert config.newreno_max_cwnd == 4.0

    @pytest.mark.parametrize("field, value", [
        ("workload", None), ("workload_factory", None),
        ("workload_params", {}), ("timeline", ())])
    def test_workload_plane_fields_are_gone(self, field, value):
        # A sweep point is a config and a topology, nothing else.
        with pytest.raises(TypeError):
            tiny_spec(**{field: value})

    def test_workload_axis_is_a_topology_parameter(self):
        # No third axis namespace: an unknown key goes to the builder, which
        # refuses it.
        with pytest.raises(ConfigurationError, match="unexpected keyword"):
            tiny_spec(axes={"workload.secondary_flows": [0, 1]})

    def test_unknown_variant_axis_value_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="did you mean 'vegas'"):
            SweepSpec(axes={"variant": ["vegsa"]})

    @pytest.mark.parametrize("kwargs", [
        {"axes": {"nosuch": [1]}},
        {"topology": "grid", "axes": {"hops": [2]}},
        {"topology_params": {"nosuch": 1}},
    ])
    def test_parameter_the_topology_builder_does_not_take_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match="unexpected keyword"):
            SweepSpec(**kwargs)

    @pytest.mark.parametrize("axis, values, attribute", [
        ("wired_rate_mbps", [10, 100], "rate_mbps"),
        ("wired_propagation_delay", [1e-6, 5e-5], "propagation_delay"),
    ])
    def test_backbone_spine_axis_reaches_the_builder(self, axis, values,
                                                     attribute):
        spec = SweepSpec(topology="backbone", axes={axis: values},
                         base=ScenarioConfig(routing="static"))
        assert spec.topology_axes == (axis,)
        built = []
        for point in spec.points():
            (bus,) = Scenario(spec.scenario_for(point.values, 1)).buses
            built.append(getattr(bus, attribute))
        assert built == values

    @pytest.mark.parametrize("axes, base", [
        ({"cell_hops": [1]}, ScenarioConfig()),
        ({"routing": ["static", "aodv"]}, ScenarioConfig()),
        ({"cell_hops": [1, 2]}, ScenarioConfig(routing="aodv")),
    ])
    def test_point_aodv_cannot_route_is_refused_at_construction(self, axes,
                                                                base):
        # The backbone's own flows cross the spine, which AODV cannot.
        with pytest.raises(ConfigurationError, match="routing=static"):
            SweepSpec(topology="backbone", axes=axes, base=base)

    def test_fingerprint_distinguishes_points_and_seeds(self):
        spec = tiny_spec()
        values_a = {"variant": "vegas", "hops": 2}
        values_b = {"variant": "vegas", "hops": 3}
        assert spec.fingerprint(values_a, 1) != spec.fingerprint(values_b, 1)
        assert spec.fingerprint(values_a, 1) != spec.fingerprint(values_a, 2)
        assert spec.fingerprint(values_a, 1) == spec.fingerprint(dict(values_a), 1)


class TestNameSpellings:
    """A topology or mobility name in any spelling is one spec and one
    store key, so a resume with another spelling re-runs nothing."""

    def test_topology_spellings_share_a_store_key(self):
        upper = tiny_spec(topology=" Chain", axes={"hops": [2]})
        lower = tiny_spec(topology="chain", axes={"hops": [2]})
        assert upper.topology == "chain"
        assert upper == lower
        assert upper.fingerprint({"hops": 2}, 1) == lower.fingerprint({"hops": 2}, 1)

    def test_mobility_spellings_share_a_store_key(self):
        upper = tiny_spec(axes={"hops": [2]},
                          base=tiny_config(mobility="Random-Walk"))
        lower = tiny_spec(axes={"hops": [2]},
                          base=tiny_config(mobility="random-walk"))
        assert upper.fingerprint({"hops": 2}, 1) == lower.fingerprint({"hops": 2}, 1)


class TestStudyExecution:
    def test_single_replication_matches_a_direct_scenario_run(self):
        spec = tiny_spec(axes={"hops": [3]})
        study = run_study(spec, max_workers=1)
        direct = Scenario(ScenarioSpec(topology=chain_topology(hops=3),
                                       config=tiny_config())).run()
        assert study.points[0].run == direct

    def test_replications_use_distinct_seeds_and_aggregate(self):
        spec = tiny_spec(axes={"hops": [2]}, replications=3)
        study = run_study(spec, max_workers=1)
        point = study.points[0]
        assert len(point.runs) == 3
        assert point.seeds == [1, 2, 3]
        interval = point.goodput_interval
        assert interval.mean == pytest.approx(
            sum(r.aggregate_goodput_bps for r in point.runs) / 3)
        assert interval.half_width >= 0.0

    def test_serial_and_parallel_runs_are_identical(self):
        spec = tiny_spec(replications=2, axes={"variant": ["vegas"], "hops": [2, 3]})
        serial = run_study(spec, max_workers=1)
        pooled = run_study(spec, max_workers=2)
        assert serial == pooled == run_study(spec)

    def test_nested_reshapes_by_axis(self):
        spec = tiny_spec()
        study = run_study(spec, max_workers=1)
        nested = study.nested("variant", "hops", leaf=lambda p: p.run)
        assert set(nested) == {"vegas", "newreno"}
        assert set(nested["vegas"]) == {2, 3}
        assert nested["vegas"][2].delivered_packets >= 20

    def test_point_lookup_and_missing_point(self):
        study = run_study(tiny_spec(axes={"hops": [2]}), max_workers=1)
        assert study.point(hops=2).run.delivered_packets >= 20
        with pytest.raises(KeyError):
            study.point(hops=99)

    def test_point_lookup_normalises_variant_case(self):
        study = run_study(tiny_spec(axes={"variant": ["vegas"], "hops": [2]}),
                          max_workers=1)
        by_name = study.point(variant="vegas", hops=2)
        assert study.point(variant=" VEGAS ", hops=2) is by_name
        with pytest.raises(ConfigurationError):
            study.point(variant="Vegas ACK Thinning", hops=2)

    def test_code_change_invalidates_cache_fingerprint(self, monkeypatch):
        import repro.experiments.study as study_module

        spec = tiny_spec(axes={"hops": [2]})
        values = spec.points()[0].values
        before = spec.fingerprint(values, 1)
        monkeypatch.setattr(study_module, "_CODE_FINGERPRINT", "different-code")
        assert spec.fingerprint(values, 1) != before

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_enabled_tracer_reaches_the_scenarios(self, max_workers):
        # a worker process cannot share the tracer: it runs the study in-process
        tracer = Tracer(enabled=True)
        run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=max_workers,
                  tracer=tracer)
        assert len(list(tracer)) > 0


class TestStudyCache:
    def test_cache_hit_skips_simulation(self, tmp_path, monkeypatch):
        spec = tiny_spec(axes={"hops": [2]})
        first = run_study(spec, max_workers=1, store=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 1

        import repro.experiments.runner as runner_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache miss: scenario was re-simulated")

        monkeypatch.setattr(runner_module, "Scenario", boom)
        second = run_study(spec, max_workers=1, store=tmp_path)
        assert second == first

    def test_corrupt_cache_entry_triggers_rerun(self, tmp_path):
        spec = tiny_spec(axes={"hops": [2]})
        first = run_study(spec, max_workers=1, store=tmp_path)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        second = run_study(spec, max_workers=1, store=tmp_path)
        assert second == first

    def test_config_change_misses_cache(self, tmp_path):
        run_study(tiny_spec(axes={"hops": [2]}), max_workers=1, store=tmp_path)
        run_study(tiny_spec(axes={"hops": [2]}, base=tiny_config(vegas_alpha=3.0)),
                  max_workers=1, store=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2


def test_parallel_study_equals_serial_at_eight_runs():
    # No wall-clock assertion: speed claims live in benchmarks/ledger.
    spec = tiny_spec(
        axes={"variant": ["vegas", "newreno"], "hops": [2, 3]},
        base=tiny_config(packet_target=120, max_sim_time=120.0),
        replications=2,
    )
    assert run_study(spec, max_workers=1) == run_study(spec, max_workers=2)
