"""Tests for study execution through run_study: where items run, their order,
failures (each item runs once), interrupts, progress and resume.

Crash-resume end to end and dead pool workers are in
``tests/integration/test_crash_resume.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments import exec as exec_module
from repro.experiments.config import ScenarioConfig
from repro.experiments.exec import (
    ProgressSnapshot,
    StudyExecutionError,
    run_work_item,
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


def forbidden(spec, values, seed, tracer=None):
    raise AssertionError("this study must not execute an item")


# Module-level tasks pickle by reference into pool worker processes; they
# report through files named by environment variables, which forked workers
# inherit.
def _logged_task(spec, values, seed, tracer=None):
    """Run the item and log ``hops:seed:pid`` of the attempt."""
    with Path(os.environ["REPRO_TEST_EXEC_LOG"]).open("a") as handle:
        handle.write(f"{values['hops']}:{seed}:{os.getpid()}\n")
    return run_work_item(spec, values, seed)


def _reverse_order_task(spec, values, seed, tracer=None):
    """Run once the item of the next ``hops`` up to 4 has finished, then log
    ``hops:seed:pid``: items of hops 2, 3 and 4 complete in reverse order."""
    log = Path(os.environ["REPRO_TEST_EXEC_LOG"])
    deadline = time.monotonic() + 30.0  # fail the assertion, never hang
    while (values["hops"] < 4 and time.monotonic() < deadline
           and values["hops"] + 1 not in [hops for hops, _, _ in
                                          logged_attempts(log)]):
        time.sleep(0.01)
    result = run_work_item(spec, values, seed)
    with log.open("a") as handle:
        handle.write(f"{values['hops']}:{seed}:{os.getpid()}\n")
    return result


def _fails_in_reverse_order_task(spec, values, seed, tracer=None):
    """Fail every item, the earlier the item the later."""
    time.sleep(0.15 * (5 - values["hops"]))
    raise RuntimeError(f"hops {values['hops']} failed")


class Interrupt(BaseException):
    """Stands in for a kill: not an ``Exception``, so no item catches it."""


def _interrupt_at_hops_three_task(spec, values, seed, tracer=None):
    """Run every item but interrupt the study at hops 3."""
    if values["hops"] == 3:
        time.sleep(0.3)
        raise Interrupt("killed")
    return _logged_task(spec, values, seed)


def _fails_at_hops_task(spec, values, seed, tracer=None):
    """Log every attempt; the ``REPRO_TEST_EXEC_FAIL_HOPS`` point raises."""
    with Path(os.environ["REPRO_TEST_EXEC_LOG"]).open("a") as handle:
        handle.write(f"{values['hops']}:{seed}:{os.getpid()}\n")
    if values["hops"] == int(os.environ["REPRO_TEST_EXEC_FAIL_HOPS"]):
        raise RuntimeError("doomed item")
    return run_work_item(spec, values, seed)


def _sleep_or_fail_task(spec, values, seed, tracer=None):
    """hops 2 raises at once; every other item sleeps half a second."""
    if values["hops"] == 2:
        raise RuntimeError("doomed item")
    time.sleep(0.5)
    return run_work_item(spec, values, seed)


def interrupt_after(count: int):
    """An in-process task that runs ``count`` items, then interrupts."""
    executed = []

    def task(spec, values, seed, tracer=None):
        if len(executed) == count:
            raise Interrupt(f"killed after {count} item(s)")
        executed.append((values["hops"], seed))
        return run_work_item(spec, values, seed)

    return task


@pytest.fixture
def exec_log(tmp_path, monkeypatch) -> Path:
    """The file the module-level tasks log their attempts to."""
    log = tmp_path / "attempts.log"
    monkeypatch.setenv("REPRO_TEST_EXEC_LOG", str(log))
    return log


def logged_attempts(log: Path):
    """``(hops, seed, pid)`` of every logged attempt, in log order."""
    if not log.exists():
        return []
    return [tuple(int(field) for field in line.split(":"))
            for line in log.read_text().splitlines()]


@pytest.fixture(scope="module")
def canned_result():
    return Scenario(ScenarioSpec(topology=chain_topology(hops=2),
                                 config=tiny_config(packet_target=10))).run()


@pytest.fixture
def no_sleep(monkeypatch):
    """Records every ``time.sleep`` of this process (there should be none)."""
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    return slept


class TestWhereItemsRun:
    def test_one_pending_item_runs_in_process(self, canned_result):
        # a closure cannot be pickled into a worker process
        study = run_study(tiny_spec(axes={"hops": [2]}), max_workers=2,
                          task=lambda *args: canned_result)
        assert study.points[0].run == canned_result

    def test_pool_runs_items_in_worker_processes(self, exec_log):
        spec = tiny_spec(axes={"hops": [2, 3]})
        study = run_study(spec, max_workers=2, task=_logged_task)
        attempts = logged_attempts(exec_log)
        assert sorted((hops, seed) for hops, seed, _ in attempts) == [(2, 1), (3, 1)]
        assert all(pid != os.getpid() for _, _, pid in attempts)
        assert study == run_study(spec, max_workers=1)

    def test_pool_has_no_more_workers_than_pending_items(self, monkeypatch,
                                                         exec_log):
        sizes = []
        real_pool = exec_module.ProcessPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(exec_module, "ProcessPoolExecutor", recording_pool)
        run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=8,
                  task=_logged_task)
        assert sizes == [2]
        assert len(logged_attempts(exec_log)) == 2

    def test_fully_resumed_study_starts_no_pool(self, tmp_path, monkeypatch):
        spec = tiny_spec(axes={"hops": [2, 3]})
        first = run_study(spec, max_workers=1, store=tmp_path)

        def no_pool(max_workers):
            raise AssertionError("a fully stored study must not start a pool")

        monkeypatch.setattr(exec_module, "ProcessPoolExecutor", no_pool)
        assert run_study(spec, max_workers=2, store=tmp_path,
                         task=forbidden) == first

    @pytest.mark.parametrize("setting", [{"max_workers": 0}, {"max_workers": -2}])
    def test_invalid_setting_rejected_before_anything_runs(self, setting):
        with pytest.raises(ConfigurationError):
            run_study(tiny_spec(axes={"hops": [2]}), task=forbidden, **setting)

    @pytest.mark.parametrize("option", ["max_retries", "item_timeout",
                                        "fail_after"])
    def test_run_study_takes_no_retry_timeout_or_crash_option(self, option):
        with pytest.raises(TypeError):
            run_study(tiny_spec(axes={"hops": [2]}), task=forbidden,
                      **{option: 1})


class TestItems:
    def test_items_run_and_assemble_point_major(self, canned_result):
        spec = tiny_spec(axes={"hops": [2, 3]}, replications=2, base_seed=7)
        calls = []

        def record(spec_, values, seed, tracer=None):
            calls.append((values["hops"], seed))
            return canned_result

        study = run_study(spec, max_workers=1, task=record)
        assert calls == [(2, 7), (2, 8), (3, 7), (3, 8)]
        assert [point.values for point in study.points] == [{"hops": 2},
                                                            {"hops": 3}]
        assert [point.seeds for point in study.points] == [[7, 8], [7, 8]]

    def test_items_are_stored_under_their_fingerprints(self, tmp_path,
                                                       canned_result):
        spec = tiny_spec(axes={"hops": [2]}, replications=2, base_seed=7)
        run_study(spec, max_workers=1, store=tmp_path,
                  task=lambda *args: canned_result)
        assert (sorted(path.stem for path in tmp_path.glob("*.json"))
                == sorted(spec.fingerprint({"hops": 2}, seed) for seed in (7, 8)))

    def test_duplicate_axis_values_share_one_stored_entry(self, tmp_path,
                                                          canned_result):
        spec = tiny_spec(axes={"hops": [2, 2]})
        first = run_study(spec, max_workers=1, store=tmp_path,
                          task=lambda *args: canned_result)
        assert len(first.points) == 2
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert run_study(spec, max_workers=1, store=tmp_path,
                         task=forbidden) == first

    def test_completion_order_does_not_change_the_result(self, exec_log):
        spec = tiny_spec(axes={"hops": [2, 3, 4]})
        study = run_study(spec, max_workers=3, task=_reverse_order_task)
        assert [hops for hops, _, _ in logged_attempts(exec_log)] == [4, 3, 2]
        assert study == run_study(spec, max_workers=1)


class TestFailures:
    def test_failing_item_surfaces_partial(self, canned_result):
        calls = []

        def flaky(spec_, values, seed, tracer=None):
            calls.append(dict(values))
            if values["hops"] == 3:
                raise RuntimeError("doomed item")
            return canned_result

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=1,
                      task=flaky)
        error = excinfo.value
        assert len(error.failed) == 1
        assert error.failed[0].values["hops"] == 3
        assert "doomed item" in str(error)
        assert calls == [{"hops": 2}, {"hops": 3}]
        # the partial result still carries the point that succeeded
        assert len(error.partial.points) == 1
        assert error.partial.points[0].values["hops"] == 2

    @pytest.mark.parametrize("error", [RuntimeError, ConfigurationError])
    def test_failing_item_is_attempted_once(self, error, canned_result,
                                            no_sleep):
        calls = []

        def doomed(spec_, values, seed, tracer=None):
            calls.append(values["hops"])
            if values["hops"] == 3:
                raise error("doomed item")
            return canned_result

        seen = []
        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=1,
                      task=doomed, progress=seen.append)
        assert calls == [2, 3]
        assert no_sleep == []
        assert [item.values for item in excinfo.value.failed] == [{"hops": 3}]
        assert (seen[-1].done, seen[-1].failed) == (1, 1)

    def test_pool_failing_item_is_attempted_once(self, exec_log, monkeypatch,
                                                 no_sleep):
        monkeypatch.setenv("REPRO_TEST_EXEC_FAIL_HOPS", "3")
        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=2,
                      task=_fails_at_hops_task)
        assert sorted(hops for hops, _, _ in logged_attempts(exec_log)) == [2, 3]
        assert no_sleep == []
        assert [item.values for item in excinfo.value.failed] == [{"hops": 3}]
        assert [point.values for point in excinfo.value.partial.points] == [
            {"hops": 2}]
        assert "doomed item" in str(excinfo.value)

    def test_items_after_a_failure_still_run(self, canned_result):
        calls = []

        def doomed(spec_, values, seed, tracer=None):
            calls.append(values["hops"])
            if values["hops"] == 3:
                raise RuntimeError("doomed item")
            return canned_result

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3, 4]}), max_workers=1,
                      task=doomed)
        assert calls == [2, 3, 4]
        assert [point.values for point in excinfo.value.partial.points] == [
            {"hops": 2}, {"hops": 4}]

    def test_pool_reports_failed_items_in_sweep_order(self):
        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3, 4]}), max_workers=3,
                      task=_fails_in_reverse_order_task)
        assert [item.item_id for item in excinfo.value.failed] == [
            "0:0", "1:0", "2:0"]

    def test_pool_broken_while_submitting_fails_the_items(self, monkeypatch):
        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def submit(self, *args):
                raise BrokenProcessPool("a worker died")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(exec_module, "ProcessPoolExecutor", BrokenPool)
        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=2,
                      task=forbidden)
        assert [item.values for item in excinfo.value.failed] == [
            {"hops": 2}, {"hops": 3}]
        assert "a worker died" in excinfo.value.failed[0].error

    def test_failed_items_carry_identity_and_error(self):
        calls = []

        def always_fails(spec_, values, seed, tracer=None):
            calls.append(seed)
            raise RuntimeError(f"attempt {len(calls)}")

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2]}, replications=2,
                                base_seed=5),
                      max_workers=1, task=always_fails)
        failed = excinfo.value.failed
        assert [item.item_id for item in failed] == ["0:0", "0:1"]
        assert [item.seed for item in failed] == [5, 6]
        assert calls == [5, 6]
        assert failed[-1].error == repr(RuntimeError("attempt 2"))

    def test_error_message_names_three_failures_and_counts_the_rest(self):
        def always_fails(spec_, values, seed, tracer=None):
            raise RuntimeError("doomed")

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2]}, replications=5),
                      max_workers=1, task=always_fails)
        message = str(excinfo.value)
        assert message.startswith("5 work item(s) failed: item 0:0")
        assert "item 0:2" in message and "item 0:3" not in message
        assert message.endswith("(+2 more)")
        assert excinfo.value.partial.points == []

    def test_resume_reruns_only_the_failed_item(self, tmp_path, canned_result):
        def doomed(spec_, values, seed, tracer=None):
            if values["hops"] == 3:
                raise RuntimeError("doomed item")
            return canned_result

        spec = tiny_spec(axes={"hops": [2, 3]})
        with pytest.raises(StudyExecutionError):
            run_study(spec, max_workers=1, store=tmp_path, task=doomed)
        calls = []

        def fixed(spec_, values, seed, tracer=None):
            calls.append(values["hops"])
            return canned_result

        resumed = run_study(spec, max_workers=1, store=tmp_path, task=fixed)
        assert calls == [3]
        assert [point.run for point in resumed.points] == [canned_result] * 2

    def test_pool_resume_reruns_only_the_failed_items(self, tmp_path, exec_log,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_TEST_EXEC_FAIL_HOPS", "3")
        spec = tiny_spec(axes={"hops": [2, 3]}, replications=2)
        with pytest.raises(StudyExecutionError):
            run_study(spec, max_workers=2, store=tmp_path,
                      task=_fails_at_hops_task)
        exec_log.unlink()
        resumed = run_study(spec, max_workers=2, store=tmp_path,
                            task=_logged_task)
        assert sorted((hops, seed) for hops, seed, _ in
                      logged_attempts(exec_log)) == [(3, 1), (3, 2)]
        assert resumed == run_study(spec, max_workers=1)


class TestNoWorkerOutlivesTheStudy:
    def test_after_a_pooled_study_returns(self, exec_log):
        run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=2,
                  task=_logged_task)
        assert multiprocessing.active_children() == []

    def test_after_a_pooled_study_fails(self):
        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=2,
                      task=_sleep_or_fail_task)
        assert multiprocessing.active_children() == []
        # the failure did not abandon the sleeping item
        assert [point.values for point in excinfo.value.partial.points] == [
            {"hops": 3}]


class TestProgressAndResume:
    def test_progress_callback_sees_monotone_done_counts(self):
        seen = []
        run_study(tiny_spec(axes={"hops": [2]}, replications=2), max_workers=1,
                  progress=seen.append)
        assert [s.done for s in seen] == [0, 1, 2]
        assert seen[-1].total == 2 and seen[-1].failed == 0

    def test_progress_snapshot_describe(self):
        snap = ProgressSnapshot(total=10, done=4, failed=1, resumed=3,
                                elapsed=5.0, eta=7.5)
        assert snap.remaining == 5
        assert snap.executed == 1
        assert snap.describe() == "4/10 done · 3 resumed · 1 failed · eta 7.5s"

    def test_pool_progress_reports_each_item_once(self, exec_log):
        seen = []
        run_study(tiny_spec(axes={"hops": [2, 3]}, replications=2),
                  max_workers=2, task=_logged_task, progress=seen.append)
        assert [s.done for s in seen] == [0, 1, 2, 3, 4]
        assert seen[-1].failed == 0 and seen[-1].executed == 4

    def test_interrupt_propagates_with_earlier_items_stored(self, tmp_path):
        spec = tiny_spec(axes={"hops": [2]}, replications=3)
        with pytest.raises(Interrupt):
            run_study(spec, max_workers=1, store=tmp_path,
                      task=interrupt_after(2))
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_store_resume_skips_completed_items(self, tmp_path):
        spec = tiny_spec(axes={"hops": [2]}, replications=3)
        first = run_study(spec, max_workers=1, store=tmp_path)
        seen = []
        second = run_study(spec, max_workers=1, store=tmp_path, task=forbidden,
                           progress=seen.append)
        assert second == first
        assert seen[-1].resumed == 3 and seen[-1].done == 3

    def test_eta_appears_once_an_item_executed(self, canned_result):
        seen = []
        run_study(tiny_spec(axes={"hops": [2]}, replications=3), max_workers=1,
                  task=lambda *args: canned_result, progress=seen.append)
        assert seen[0].eta is None
        assert all(snap.eta is not None for snap in seen[1:])
        assert seen[-1].remaining == 0 and seen[-1].executed == 3

    def test_describe_omits_zero_counts_and_a_finished_eta(self):
        snap = ProgressSnapshot(total=2, done=2, failed=0, resumed=0,
                                elapsed=1.0, eta=0.0)
        assert snap.describe() == "2/2 done"

    def test_interrupt_in_the_pool_stops_workers_and_resume_completes(
            self, tmp_path, exec_log):
        spec = tiny_spec(axes={"hops": [2, 3]}, replications=2)
        store = tmp_path / "store"
        with pytest.raises(Interrupt):
            run_study(spec, max_workers=2, store=store,
                      task=_interrupt_at_hops_three_task)
        assert multiprocessing.active_children() == []
        # only finished items, each a complete entry: no temp files
        assert ({path.name for path in store.glob("*")}
                <= {f"{spec.fingerprint({'hops': 2}, seed)}.json"
                    for seed in (1, 2)})
        resumed = run_study(spec, max_workers=2, store=store,
                            task=_logged_task)
        assert resumed == run_study(spec, max_workers=1)

    def test_pool_resume_executes_only_the_missing_items(self, tmp_path,
                                                         exec_log):
        spec = tiny_spec(axes={"hops": [2, 3]}, replications=2)
        with pytest.raises(Interrupt):
            run_study(spec, max_workers=1, store=tmp_path,
                      task=interrupt_after(2))
        resumed = run_study(spec, max_workers=2, store=tmp_path,
                            task=_logged_task)
        assert sorted((hops, seed) for hops, seed, _ in
                      logged_attempts(exec_log)) == [(3, 1), (3, 2)]
        assert resumed == run_study(spec, max_workers=1)
