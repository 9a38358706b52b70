"""Acceptance tests for crash-resume: kill a study mid-run, resume, compare.

The contract pinned here: a study interrupted after K of N items (a kill of
the driver, a dead worker) and resumed from its result store re-executes
exactly the N−K missing items and produces a StudyResult — including every
confidence interval — that is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from pathlib import Path

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.exec import StudyExecutionError, run_work_item
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


class Killed(BaseException):
    """Stands in for a kill of the driver: no ``except Exception`` stops it."""


class TestCrashThenResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_executes_exactly_the_missing_items(self, tmp_path,
                                                       monkeypatch, workers):
        spec = small_spec()
        total = len(spec.points()) * spec.replications
        assert total == 8
        crash_after = 3

        # uninterrupted reference run (no store: pure in-memory)
        reference = run_study(spec, max_workers=1)

        # run 1: killed after 3 checkpointed items
        def killed_after_three(spec_, values, seed, tracer=None):
            if len(list(store.glob("*"))) == crash_after:
                raise Killed()
            return run_work_item(spec_, values, seed)

        store = tmp_path / "store"
        with pytest.raises(Killed):
            run_study(spec, max_workers=1, store=store, task=killed_after_three)
        # exactly the finished items, each a complete entry: no temp files
        stored = {path.name for path in store.iterdir()}
        assert len(stored) == crash_after
        assert all(name.endswith(".json") for name in stored)

        # run 2: resume, in-process or pooled, logging what actually executes
        log = tmp_path / "executed.log"
        monkeypatch.setenv("REPRO_TEST_EXECUTED_LOG", str(log))
        resumed = run_study(spec, max_workers=workers, store=store,
                            task=_logged_task)
        executed = log.read_text().split()
        assert len(executed) == total - crash_after
        assert ({f"{key}.json" for key in executed}
                == {path.name for path in store.iterdir()} - stored)

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


# Module-level tasks pickle by reference into pool worker processes.
def _logged_task(spec, values, seed, tracer=None):
    """Run the item and log its fingerprint to ``REPRO_TEST_EXECUTED_LOG``."""
    with Path(os.environ["REPRO_TEST_EXECUTED_LOG"]).open("a") as handle:
        handle.write(spec.fingerprint(values, seed) + "\n")
    return run_work_item(spec, values, seed)


def _die_once_task(spec, values, seed, tracer=None):
    marker = Path(os.environ["REPRO_TEST_CRASH_MARKER"])
    if not marker.exists():
        marker.write_text("worker died here")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_work_item(spec, values, seed)


class TestProcessPoolWorkerDeath:
    def test_killed_worker_fails_its_items_and_resume_completes(
            self, tmp_path, monkeypatch):
        marker = tmp_path / "died.marker"
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER", str(marker))
        spec = small_spec(axes={"hops": [2]}, replications=2)
        store = tmp_path / "store"

        with pytest.raises(StudyExecutionError) as excinfo:
            run_study(spec, max_workers=2, store=store, task=_die_once_task)
        assert marker.exists()  # the kill actually happened
        failed = excinfo.value.failed
        assert failed and all("BrokenProcessPool" in item.error
                              for item in failed)
        assert multiprocessing.active_children() == []

        resumed = run_study(spec, max_workers=2, store=store,
                            task=_die_once_task)
        assert resumed == run_study(spec, max_workers=1)
