"""Acceptance tests for crash-resume: kill a study mid-run, resume, compare.

The contract pinned here: a study interrupted after K of N items (driver
kill, dead worker, hung worker) and resumed from its result store
re-executes exactly the N−K missing items and produces a StudyResult —
including every confidence interval — that is bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments import exec as exec_module
from repro.experiments.exec import SimulatedCrash, StudyExecutionError, run_work_item
from repro.experiments.study import SweepSpec, run_study


def small_spec(**overrides) -> SweepSpec:
    defaults = dict(
        name="crash-resume",
        topology="chain",
        axes={"variant": ["vegas", "newreno"], "hops": [2, 3]},
        base=ScenarioConfig(packet_target=15, max_sim_time=25.0),
        replications=2,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestCrashThenResume:
    def test_resume_executes_exactly_the_missing_items(self, tmp_path):
        spec = small_spec()
        total = len(spec.points()) * spec.replications
        assert total == 8
        crash_after = 3

        # uninterrupted reference run (no store: pure in-memory)
        reference = run_study(spec, max_workers=1)

        # run 1: simulated kill after 3 checkpointed items
        store = tmp_path / "store"
        with pytest.raises(SimulatedCrash) as excinfo:
            run_study(spec, max_workers=1, store=store,
                      fail_after=crash_after)
        assert excinfo.value.completed == crash_after
        assert len(list(store.glob("*.json"))) == crash_after

        # run 2: resume — count what actually executes
        executed = []

        def counting_task(spec_, values, seed, tracer=None):
            executed.append((dict(values), seed))
            return run_work_item(spec_, values, seed)

        resumed = run_study(spec, max_workers=1, store=store,
                            task=counting_task)
        assert len(executed) == total - crash_after

        # bit-identical to the uninterrupted run, CIs included
        assert resumed == reference
        assert (json.dumps(resumed.to_dict(), sort_keys=True)
                == json.dumps(reference.to_dict(), sort_keys=True))
        for point_resumed, point_ref in zip(resumed.points, reference.points):
            assert (point_resumed.goodput_interval
                    == point_ref.goodput_interval)

    def test_double_resume_is_a_pure_replay(self, tmp_path):
        spec = small_spec(axes={"hops": [2]}, replications=2)
        store = tmp_path / "store"
        first = run_study(spec, max_workers=1, store=store)

        def forbidden(spec_, values, seed, tracer=None):
            raise AssertionError("fully stored study must not execute")

        again = run_study(spec, max_workers=1, store=store,
                          task=forbidden)
        assert again == first


# Module-level so it pickles by reference into pool worker processes.
def _die_once_task(spec, values, seed, tracer=None):
    marker = Path(os.environ["REPRO_TEST_CRASH_MARKER"])
    if not marker.exists():
        marker.write_text("worker died here")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_work_item(spec, values, seed)


# Module-level so it pickles by reference into pool worker processes.
def _slow_logged_task(spec, values, seed, tracer=None):
    log = Path(os.environ["REPRO_TEST_SLOW_LOG"])
    with log.open("a") as handle:
        handle.write(f"{sorted(values.items())}:{seed}\n")
    time.sleep(0.6)
    return run_work_item(spec, values, seed)


class TestHungWorkerRecovery:
    def test_attempt_outliving_item_timeout_counts_as_failed(
            self, tmp_path, monkeypatch):
        # With no retries, each timed-out attempt fails its item at once;
        # the study does not wait for the late results.
        monkeypatch.setenv("REPRO_TEST_SLOW_LOG", str(tmp_path / "executions.log"))
        spec = small_spec(axes={"hops": [2]}, replications=2)

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(spec, max_workers=2, task=_slow_logged_task,
                      item_timeout=0.2, max_retries=0)

        assert len(excinfo.value.failed) == 2
        assert "outlived item_timeout (0.2 s)" in str(excinfo.value)
        assert excinfo.value.partial.points == []

    def test_late_result_of_a_timed_out_attempt_is_kept(
            self, tmp_path, monkeypatch):
        # Every task runs longer than item_timeout, so each attempt counts
        # as failed while its pool future is still running.  A long backoff
        # keeps the retries from being submitted before the late results
        # arrive (whichever comes first decides), so both are kept without
        # re-execution.
        log = tmp_path / "executions.log"
        monkeypatch.setenv("REPRO_TEST_SLOW_LOG", str(log))
        monkeypatch.setattr(exec_module, "BACKOFF_BASE", 30.0)
        spec = small_spec(axes={"hops": [2]}, replications=2)
        store = tmp_path / "store"

        study = run_study(spec, max_workers=2, store=store,
                          task=_slow_logged_task, item_timeout=0.2)

        assert study == run_study(spec, max_workers=1)
        # each item executed exactly once: late results were kept, never
        # double-executed
        assert len(log.read_text().splitlines()) == 2
        events = [json.loads(line)["event"] for line
                  in (store / "journal.jsonl").read_text().splitlines()]
        assert sorted(events) == ["done", "done", "retry", "retry",
                                  "salvaged", "salvaged"]


class TestProcessPoolWorkerDeath:
    def test_killed_worker_items_are_requeued_and_study_completes(
            self, tmp_path, monkeypatch):
        marker = tmp_path / "died.marker"
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER", str(marker))
        spec = small_spec(axes={"hops": [2]}, replications=2)

        study = run_study(spec, max_workers=2, task=_die_once_task,
                          max_retries=3)

        assert marker.exists()  # the kill actually happened
        assert study == run_study(spec, max_workers=1)
