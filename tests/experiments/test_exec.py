"""Tests for study execution through run_study: where items run, their order,
retry with backoff, failures, progress and the crash hook.

Faults of pool workers (timeouts, dead processes) are in
``tests/integration/test_crash_resume.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments import exec as exec_module
from repro.experiments.config import ScenarioConfig
from repro.experiments.exec import (
    ProgressSnapshot,
    SimulatedCrash,
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


def _fails_first_attempt_task(spec, values, seed, tracer=None):
    """Fail each item's first attempt (marked by a file), then run it."""
    marker = Path(os.environ["REPRO_TEST_EXEC_LOG"]).with_name(
        f"failed-{values['hops']}-{seed}")
    if not marker.exists():
        marker.write_text("first attempt failed")
        raise RuntimeError("transient")
    return _logged_task(spec, values, seed)


def _bad_hops_three_task(spec, values, seed, tracer=None):
    """Log every attempt; hops 3 is a bad sweep point."""
    with Path(os.environ["REPRO_TEST_EXEC_LOG"]).open("a") as handle:
        handle.write(f"{values['hops']}:{seed}:{os.getpid()}\n")
    if values["hops"] == 3:
        raise ConfigurationError("hops=3 is not a valid point")
    return run_work_item(spec, values, seed)


def _fails_at_hops_task(spec, values, seed, tracer=None):
    """Log every attempt; the ``REPRO_TEST_EXEC_FAIL_HOPS`` point raises."""
    with Path(os.environ["REPRO_TEST_EXEC_LOG"]).open("a") as handle:
        handle.write(f"{values['hops']}:{seed}:{os.getpid()}\n")
    if values["hops"] == int(os.environ["REPRO_TEST_EXEC_FAIL_HOPS"]):
        raise RuntimeError("doomed item")
    return run_work_item(spec, values, seed)


def _forbidden_task(spec, values, seed, tracer=None):
    raise AssertionError("this study must not execute an item")


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


def journal_events(store: Path):
    return [json.loads(line) for line
            in (store / "journal.jsonl").read_text().splitlines()]


@pytest.fixture(scope="module")
def canned_result():
    return Scenario(ScenarioSpec(topology=chain_topology(hops=2),
                                 config=tiny_config(packet_target=10))).run()


class FakeClock:
    """Stands in for the executor's clock and sleep: sleeping advances it."""

    def __init__(self) -> None:
        self.now = 0.0
        self.slept = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


@pytest.fixture
def clock(monkeypatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(exec_module, "_clock", fake)
    monkeypatch.setattr(exec_module, "_sleep", fake.sleep)
    return fake


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
                         task=_forbidden_task) == first

    @pytest.mark.parametrize("setting", [
        {"max_workers": 0}, {"max_workers": -2},
        {"item_timeout": 0.0}, {"max_retries": -1},
    ])
    def test_invalid_setting_rejected_before_anything_runs(self, setting):
        with pytest.raises(ConfigurationError):
            run_study(tiny_spec(axes={"hops": [2]}), task=forbidden, **setting)


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


    def test_completion_order_does_not_change_the_result(self, clock):
        # the first item fails once and, as the clock stands still while the
        # others run, its backoff makes it complete last
        spec = tiny_spec(axes={"hops": [2, 3]}, replications=2)
        attempts = []

        def first_item_late(spec_, values, seed, tracer=None):
            attempts.append((values["hops"], seed))
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return run_work_item(spec_, values, seed)

        study = run_study(spec, max_workers=1, task=first_item_late)
        assert attempts[-1] == (2, 1)
        assert study == run_study(spec, max_workers=1)


class TestRetry:
    def test_backoff_doubles_from_a_quarter_second(self, clock, canned_result):
        starts = []

        def fails_twice(spec_, values, seed, tracer=None):
            starts.append(clock.now)
            if len(starts) < 3:
                raise RuntimeError("transient")
            return canned_result

        study = run_study(tiny_spec(axes={"hops": [2]}), max_workers=1,
                          task=fails_twice)
        assert starts == [0.0, 0.25, 0.75]
        assert clock.slept == [0.25, 0.5]
        assert study.points[0].run == canned_result

    def test_ready_items_run_while_one_waits_and_a_retry_keeps_its_place(
            self, clock, canned_result):
        order = []

        def task(spec_, values, seed, tracer=None):
            order.append(values["hops"])
            if order == [2]:
                raise RuntimeError("transient")
            if values["hops"] == 3:
                clock.now += 1.0  # outlasts the first item's backoff
            return canned_result

        run_study(tiny_spec(axes={"hops": [2, 3, 4]}), max_workers=1, task=task)
        assert order == [2, 3, 2, 4]
        assert clock.slept == []

    def test_retry_recovers_transient_failure(self, canned_result):
        attempts = []

        def flaky_once(spec_, values, seed, tracer=None):
            attempts.append(seed)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return canned_result

        seen = []
        study = run_study(tiny_spec(axes={"hops": [2]}), max_workers=1,
                          task=flaky_once, progress=seen.append)
        assert len(attempts) == 2
        assert study.points[0].run == canned_result
        assert seen[-1].retried == 1


    def test_pool_retry_recovers_transient_failures(self, exec_log):
        spec = tiny_spec(axes={"hops": [2, 3]})
        seen = []
        study = run_study(spec, max_workers=2, task=_fails_first_attempt_task,
                          progress=seen.append)
        # each item's first attempt failed; each ran once more and succeeded
        assert sorted((hops, seed) for hops, seed, _ in
                      logged_attempts(exec_log)) == [(2, 1), (3, 1)]
        assert (seen[-1].done, seen[-1].retried, seen[-1].failed) == (2, 2, 0)
        assert study == run_study(spec, max_workers=1)


class TestFailures:
    def test_failing_task_retries_then_surfaces_partial(self, canned_result):
        calls = []

        def flaky(spec_, values, seed, tracer=None):
            calls.append(dict(values))
            if values["hops"] == 3:
                raise RuntimeError("doomed item")
            return canned_result

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=1,
                      task=flaky, max_retries=1)
        error = excinfo.value
        assert len(error.failed) == 1
        assert error.failed[0].values["hops"] == 3
        assert "doomed item" in str(error)
        # 1 success + (1 first attempt + 1 retry) for the doomed item
        assert len(calls) == 3
        # the partial result still carries the point that succeeded
        assert len(error.partial.points) == 1
        assert error.partial.points[0].values["hops"] == 2

    def test_zero_retries_fails_on_the_first_error(self, canned_result):
        calls = []

        def doomed(spec_, values, seed, tracer=None):
            calls.append(values["hops"])
            if values["hops"] == 3:
                raise RuntimeError("doomed item")
            return canned_result

        seen = []
        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=1,
                      task=doomed, max_retries=0, progress=seen.append)
        assert calls == [2, 3]
        assert [item.values for item in excinfo.value.failed] == [{"hops": 3}]
        assert (seen[-1].done, seen[-1].failed, seen[-1].retried) == (1, 1, 0)

    def test_configuration_error_is_terminal_without_retry(self, canned_result):
        # deterministic bad-sweep-point errors must not be re-simulated
        calls = []

        def bad_point(spec_, values, seed, tracer=None):
            calls.append(dict(values))
            if values["hops"] == 3:
                raise ConfigurationError("hops=3 is not a valid point")
            return canned_result

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=1,
                      task=bad_point, max_retries=5)
        # 1 success + exactly 1 attempt for the bad point — no retries
        assert len(calls) == 2
        assert len(excinfo.value.failed) == 1
        assert "hops=3" in str(excinfo.value)


    def test_pool_configuration_error_is_terminal_without_retry(self, exec_log):
        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=2,
                      task=_bad_hops_three_task, max_retries=5)
        assert sorted(hops for hops, _, _ in logged_attempts(exec_log)) == [2, 3]
        assert [item.values for item in excinfo.value.failed] == [{"hops": 3}]
        assert [point.values for point in excinfo.value.partial.points] == [
            {"hops": 2}]

    def test_pool_zero_retries_fails_on_the_first_error(self, exec_log,
                                                          monkeypatch):
        monkeypatch.setenv("REPRO_TEST_EXEC_FAIL_HOPS", "3")
        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=2,
                      task=_fails_at_hops_task, max_retries=0)
        assert sorted(hops for hops, _, _ in logged_attempts(exec_log)) == [2, 3]
        assert [item.attempts for item in excinfo.value.failed] == [1]
        assert "doomed item" in str(excinfo.value)

    def test_failed_items_carry_identity_attempts_and_last_error(self):
        calls = []

        def always_fails(spec_, values, seed, tracer=None):
            calls.append(seed)
            raise RuntimeError(f"attempt {len(calls)}")

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2]}, replications=2,
                                base_seed=5),
                      max_workers=1, task=always_fails, max_retries=2)
        failed = excinfo.value.failed
        assert [item.item_id for item in failed] == ["0:0", "0:1"]
        assert [item.seed for item in failed] == [5, 6]
        assert [item.attempts for item in failed] == [3, 3]
        assert failed[-1].error == repr(RuntimeError("attempt 6"))

    def test_error_message_names_three_failures_and_counts_the_rest(self):
        def always_fails(spec_, values, seed, tracer=None):
            raise RuntimeError("doomed")

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(tiny_spec(axes={"hops": [2]}, replications=5),
                      max_workers=1, task=always_fails, max_retries=0)
        message = str(excinfo.value)
        assert message.startswith("5 work item(s) failed after retries")
        assert "item 0:2" in message and "item 0:3" not in message
        assert message.endswith("(+2 more)")
        assert excinfo.value.partial.points == []


class TestProgressAndResume:
    def test_progress_callback_sees_monotone_done_counts(self):
        seen = []
        run_study(tiny_spec(axes={"hops": [2]}, replications=2), max_workers=1,
                  progress=seen.append)
        assert [s.done for s in seen] == [0, 1, 2]
        assert seen[-1].total == 2 and seen[-1].failed == 0

    def test_progress_snapshot_describe(self):
        snap = ProgressSnapshot(total=10, done=4, failed=1, retried=2,
                                resumed=3, elapsed=5.0, eta=7.5)
        assert snap.remaining == 5
        assert snap.executed == 1
        text = snap.describe()
        assert "4/10 done" in text
        assert "3 resumed" in text and "1 failed" in text
        assert "2 retried" in text and "eta 7.5s" in text

    def test_fail_after_raises_with_checkpointed_items(self, tmp_path):
        spec = tiny_spec(axes={"hops": [2]}, replications=3)
        with pytest.raises(SimulatedCrash) as excinfo:
            run_study(spec, max_workers=1, store=tmp_path, fail_after=2)
        assert excinfo.value.completed == 2
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
        snap = ProgressSnapshot(total=2, done=2, failed=0, retried=0,
                                resumed=0, elapsed=1.0, eta=0.0)
        assert snap.describe() == "2/2 done"

    def test_fail_after_in_the_pool_checkpoints_the_completed_item(
            self, tmp_path, exec_log):
        spec = tiny_spec(axes={"hops": [2, 3]}, replications=2)
        with pytest.raises(SimulatedCrash) as excinfo:
            run_study(spec, max_workers=2, store=tmp_path, task=_logged_task,
                      fail_after=1)
        assert excinfo.value.completed == 1
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_pool_resume_executes_only_the_missing_items(self, tmp_path,
                                                         exec_log):
        spec = tiny_spec(axes={"hops": [2, 3]}, replications=2)
        with pytest.raises(SimulatedCrash):
            run_study(spec, max_workers=1, store=tmp_path, fail_after=2)
        resumed = run_study(spec, max_workers=2, store=tmp_path,
                            task=_logged_task)
        assert sorted((hops, seed) for hops, seed, _ in
                      logged_attempts(exec_log)) == [(3, 1), (3, 2)]
        assert resumed == run_study(spec, max_workers=1)


class TestJournal:
    def test_retries_and_failures_are_journaled(self, tmp_path, canned_result):
        def doomed(spec_, values, seed, tracer=None):
            if values["hops"] == 3:
                raise RuntimeError("doomed item")
            return canned_result

        with pytest.raises(StudyExecutionError):
            run_study(tiny_spec(axes={"hops": [2, 3]}), max_workers=1,
                      store=tmp_path, task=doomed, max_retries=1)
        events = journal_events(tmp_path)
        assert [event["event"] for event in events] == ["done", "retry", "failed"]
        retry, failed = events[1:]
        assert (retry["item"], retry["attempts"]) == ("1:0", 1)
        assert (failed["item"], failed["attempts"]) == ("1:0", 2)
        assert "doomed item" in failed["error"]

    def test_resume_is_journaled_with_the_recovered_count(self, tmp_path,
                                                          canned_result):
        spec = tiny_spec(axes={"hops": [2, 3]})
        run_study(spec, max_workers=1, store=tmp_path,
                  task=lambda *args: canned_result)
        run_study(spec, max_workers=1, store=tmp_path, task=forbidden)
        resume = journal_events(tmp_path)[-1]
        assert resume["event"] == "resume"
        assert (resume["recovered"], resume["total"]) == (2, 2)
