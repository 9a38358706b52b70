"""Acceptance tests for crash-resume: kill a study mid-run, resume, compare.

The contract pinned here is the PR's headline guarantee: a study interrupted
after K of N items (worker death, driver kill, expired lease) and resumed
from its result store re-executes exactly the N−K missing items and produces
a StudyResult — including every streaming confidence interval — that is
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.exec import (
    BACKENDS,
    ResultStore,
    SimulatedCrash,
    StreamingAggregator,
    WorkQueue,
    run_work_item,
)
from repro.experiments.exec.backends import ExecutionContext
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
        reference = run_study(spec, backend="serial")

        # run 1: simulated kill after 3 checkpointed items
        store = tmp_path / "store"
        with pytest.raises(SimulatedCrash) as excinfo:
            run_study(spec, backend="serial", store=store,
                      fail_after=crash_after)
        assert excinfo.value.completed == crash_after
        assert len(list(ResultStore(store).stored_keys())) == crash_after

        # run 2: resume — count what actually executes
        executed = []

        def counting_task(spec_, values, seed, tracer=None):
            executed.append((dict(values), seed))
            return run_work_item(spec_, values, seed)

        resumed = run_study(spec, backend="serial", store=store,
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
        first = run_study(spec, backend="serial", store=store)

        def forbidden(spec_, values, seed, tracer=None):
            raise AssertionError("fully stored study must not execute")

        again = run_study(spec, backend="serial", store=store,
                          task=forbidden)
        assert again == first


class TestLeaseExpiry:
    def test_expired_lease_from_dead_worker_is_re_executed(self):
        spec = small_spec(axes={"hops": [2]}, replications=2)
        queue = WorkQueue.from_spec(spec, lease_timeout=300.0)

        # a worker from a previous driver incarnation died holding a lease
        doomed = queue.lease("dead-worker", now=0.0)
        assert doomed is not None

        ticks = itertools.count(start=1000)
        ctx = ExecutionContext(
            spec=spec, queue=queue, aggregator=StreamingAggregator(spec),
            clock=lambda: float(next(ticks)),
        )
        BACKENDS.get("serial").runner(ctx)

        assert queue.finished and queue.failed_count == 0
        assert queue.retried == 1  # exactly the expired lease
        assert doomed.state.value == "done"
        study = ctx.aggregator.result()
        assert study == run_study(spec, backend="serial")


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
    def test_worker_outliving_its_lease_does_not_crash_the_study(
            self, tmp_path, monkeypatch):
        # Every task runs longer than the lease timeout, so each lease
        # expires while its pool future is still running.  The driver must
        # not treat the late completion as a live lease (that used to raise
        # ConfigurationError and kill the study); since the item was not
        # re-leased yet, the late result is salvaged without re-execution.
        log = tmp_path / "executions.log"
        monkeypatch.setenv("REPRO_TEST_SLOW_LOG", str(log))
        spec = small_spec(axes={"hops": [2]}, replications=2)

        study = run_study(spec, backend="process-pool", max_workers=1,
                          task=_slow_logged_task, lease_timeout=0.2)

        assert study == run_study(spec, backend="serial")
        # each item executed exactly once: late results were salvaged,
        # never double-executed
        assert len(log.read_text().splitlines()) == 2


class TestProcessPoolWorkerDeath:
    def test_killed_worker_items_are_requeued_and_study_completes(
            self, tmp_path, monkeypatch):
        marker = tmp_path / "died.marker"
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER", str(marker))
        spec = small_spec(axes={"hops": [2]}, replications=2)

        study = run_study(spec, backend="process-pool", max_workers=2,
                          task=_die_once_task, max_retries=3)

        assert marker.exists()  # the kill actually happened
        assert study == run_study(spec, backend="serial")
