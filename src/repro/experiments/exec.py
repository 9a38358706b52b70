"""Resumable study execution: run sweep items in-process or on a process pool.

:func:`~repro.experiments.study.run_study`, the only study driver, explodes a
sweep into one :class:`WorkItem` per (sweep point, replication seed), keyed by
the spec's configuration fingerprint, and hands them to :func:`execute`.  Each
item runs once per call.  A finished item is checkpointed into the
:class:`ResultStore`; an item whose task raised, or whose worker process died,
is reported in :class:`StudyExecutionError`, and the same study on the same
store resumes it: a scenario run is a pure function of its key, so re-running
what is missing is the one recovery path.  Items run in-process when the
caller's tracer is enabled (a worker process cannot share it), when one item
is left or with one worker; otherwise on a ``ProcessPoolExecutor``.  The
assembled :class:`~repro.experiments.study.StudyResult` is bit-identical
either way (``docs/studies.md``).
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Tuple, TYPE_CHECKING, Union,
)

from repro.core.errors import SimulationError
from repro.core.io import atomic_write_text
from repro.core.tracing import NULL_TRACER, Tracer
from repro.experiments.results import ScenarioResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.study import StudyResult, SweepSpec

#: Version of the per-item envelope; entries of another version are skipped
#: (and re-executed), never parsed on faith.
ITEM_SCHEMA = 1


# ======================================================================
# The result store
# ======================================================================
class StoreWarning(UserWarning):
    """Warned when a store entry is skipped (unreadable / wrong schema)."""


class ResultStore:
    """Append-safe, fingerprint-keyed store of per-item scenario results.

    Every finished item is one JSON file written atomically
    (write-temp-then-``os.replace``), so a process killed at any instant
    leaves no entry or a complete one.  Entries that are unreadable,
    schema-mismatched or do not decode are skipped with a
    :class:`StoreWarning` and their items re-executed, so a damaged store can
    slow a study down but never poison it.

    Args:
        root: Directory holding the item files.  Created on first write; a
            missing directory reads as an empty store.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def item_path(self, key: str) -> Path:
        """The on-disk path of one item entry."""
        return self.root / f"{key}.json"

    def put(self, key: str, result: ScenarioResult) -> Path:
        """Atomically publish one finished item result."""
        envelope = {"schema": ITEM_SCHEMA, "key": key, "result": result.to_dict()}
        return atomic_write_text(
            self.item_path(key),
            json.dumps(envelope, sort_keys=True, separators=(",", ":")),
        )

    def get(self, key: str) -> Optional[ScenarioResult]:
        """The stored result for ``key``, or None when absent or invalid.

        Invalid entries — unparsable JSON, another schema version, a
        ``key`` that is not this one (a copied or renamed file) or a payload
        :meth:`ScenarioResult.from_dict` rejects — are reported through a
        :class:`StoreWarning` and read as absent.
        """
        try:
            text = self.item_path(key).read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:  # pragma: no cover - exotic I/O failures
            self._skip(key, f"unreadable entry ({exc})")
            return None
        try:
            data = json.loads(text)
        except ValueError:
            self._skip(key, "corrupt JSON")
            return None
        if not isinstance(data, dict):
            self._skip(key, "entry is not a JSON object")
            return None
        if data.get("schema") != ITEM_SCHEMA:
            self._skip(key, f"schema version {data.get('schema')!r} "
                            f"(this build reads {ITEM_SCHEMA})")
            return None
        if data.get("key", key) != key:
            self._skip(key, f"entry claims key {str(data['key'])[:12]}… "
                            "(copied or renamed entry file)")
            return None
        try:
            return ScenarioResult.from_dict(data["result"])
        except (KeyError, TypeError, ValueError, AttributeError):
            self._skip(key, "entry does not decode as a ScenarioResult")
            return None

    def resume(self, keys: Iterable[str]) -> Dict[str, ScenarioResult]:
        """Load every valid stored result among ``keys``."""
        recovered: Dict[str, ScenarioResult] = {}
        if not self.root.is_dir():
            return recovered
        for key in keys:
            if key not in recovered:
                result = self.get(key)
                if result is not None:
                    recovered[key] = result
        return recovered

    def _skip(self, key: str, reason: str) -> None:
        warnings.warn(
            f"result store {self.root}: skipping entry {key[:12]}…: {reason}; "
            "the item will be re-executed",
            StoreWarning,
            stacklevel=3,
        )


# ======================================================================
# Items, progress and errors
# ======================================================================
@dataclass
class WorkItem:
    """One (sweep point, replication seed) scenario run.

    Attributes:
        key: The spec's fingerprint of this run, under which its result is
            stored.  Duplicate axis values give two items one key.
        point_index: Index of the sweep point in cartesian order.
        replication: Replication index (``seed = base_seed + replication``).
        seed: The RNG seed this run uses.
        values: The point's axis values.
        error: Why the item failed, if it did.
    """

    key: str
    point_index: int
    replication: int
    seed: int
    values: Mapping[str, object]
    error: Optional[str] = None

    @property
    def item_id(self) -> str:
        """Stable human-readable identity (``point:replication``)."""
        return f"{self.point_index}:{self.replication}"


@dataclass(frozen=True)
class ProgressSnapshot:
    """One observation of study execution progress.

    Attributes:
        total: Total work items in the study.
        done: Items finished successfully, including ``resumed`` ones.
        failed: Items whose run raised or whose worker process died.
        resumed: Items satisfied from the result store without executing.
        elapsed: Wall-clock seconds since execution started.
        eta: Estimated seconds to completion (None until at least one item
            actually executed in this run).
    """

    total: int
    done: int
    failed: int
    resumed: int
    elapsed: float
    eta: Optional[float]

    @property
    def remaining(self) -> int:
        """Items still pending or in flight."""
        return self.total - self.done - self.failed

    @property
    def executed(self) -> int:
        """Items actually simulated in this run (done minus resumed)."""
        return self.done - self.resumed

    def describe(self) -> str:
        """One-line human rendering (the study command's progress line)."""
        parts = [f"{self.done}/{self.total} done"]
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.eta is not None and self.remaining:
            parts.append(f"eta {self.eta:.1f}s")
        return " · ".join(parts)


class StudyExecutionError(SimulationError):
    """Raised when work items failed.

    Attributes:
        failed: The failed :class:`WorkItem` s, in sweep order.
        partial: A :class:`~repro.experiments.study.StudyResult` over
            everything that did complete; those items are in the store, so
            fixing the cause and resuming re-executes only the failures.
    """

    def __init__(self, failed: List[WorkItem], partial: "StudyResult") -> None:
        self.failed = list(failed)
        self.partial = partial
        described = "; ".join(
            f"item {item.item_id} (seed {item.seed}): {item.error}"
            for item in self.failed[:3]
        )
        more = f" (+{len(self.failed) - 3} more)" if len(self.failed) > 3 else ""
        super().__init__(
            f"{len(self.failed)} work item(s) failed: {described}{more}"
        )


def run_work_item(spec: "SweepSpec", values: Mapping[str, object], seed: int,
                  tracer: Tracer = NULL_TRACER) -> ScenarioResult:
    """Execute one (point, seed) scenario run.

    Module level, so it pickles by reference into worker processes.
    """
    from repro.experiments.runner import Scenario

    return Scenario(spec.scenario_for(values, seed), tracer=tracer).run()


#: Signature of the per-item task (a test seam: the fault tests substitute
#: counting, failing or slow tasks).
WorkTask = Callable[..., ScenarioResult]


# ======================================================================
# Execution
# ======================================================================
@dataclass
class _Run:
    """The bookkeeping of one :func:`execute` call.

    ``todo`` holds the positions of the items to run, ascending.
    """

    spec: "SweepSpec"
    items: List[WorkItem]
    store: Optional[ResultStore]
    progress: Optional[Callable[[ProgressSnapshot], None]]
    task: WorkTask
    tracer: Tracer
    results: Dict[int, ScenarioResult] = field(default_factory=dict)
    todo: List[int] = field(default_factory=list)
    failed: List[int] = field(default_factory=list)
    resumed: int = 0
    executed: int = 0
    started: float = field(default_factory=time.monotonic)

    def notify(self) -> None:
        """Hand the progress callback, if any, a snapshot."""
        if self.progress is None:
            return
        elapsed = time.monotonic() - self.started
        done = len(self.results)
        eta = None
        if self.executed:
            eta = elapsed / self.executed * (len(self.items) - done - len(self.failed))
        self.progress(ProgressSnapshot(
            total=len(self.items), done=done, failed=len(self.failed),
            resumed=self.resumed, elapsed=elapsed, eta=eta,
        ))

    def settle(self, position: int, outcome: Callable[[], ScenarioResult]) -> None:
        """Record the outcome of one item, in-process or pooled alike.

        ``outcome`` returns the item's result or raises what its run raised
        (a ``BrokenProcessPool`` when its worker died): a result is
        checkpointed, an exception fails the item.  A ``BaseException`` that
        is not an ``Exception`` (``KeyboardInterrupt``) ends the study, with
        every item settled so far in the store.
        """
        try:
            result = outcome()
        except Exception as exc:  # noqa: BLE001 - the failure is reported
            self.items[position].error = repr(exc)
            self.failed.append(position)
        else:
            if self.store is not None:
                self.store.put(self.items[position].key, result)
            self.results[position] = result
            self.executed += 1
        self.notify()


def execute(
    spec: "SweepSpec",
    items: List[WorkItem],
    *,
    store: Optional[ResultStore],
    workers: int,
    tracer: Tracer,
    progress: Optional[Callable[[ProgressSnapshot], None]],
    task: WorkTask,
) -> Tuple[Dict[int, ScenarioResult], List[WorkItem]]:
    """Resume ``items`` from ``store``, run each of the rest once and return
    the outcome.

    Returns:
        The results by position in ``items``, and the items that failed, in
        ``items`` order.
    """
    run = _Run(spec=spec, items=items, store=store, progress=progress, task=task,
               tracer=tracer)
    recovered = {} if store is None else store.resume({item.key for item in items})
    for position, item in enumerate(items):
        if item.key in recovered:
            run.results[position] = recovered[item.key]
        else:
            run.todo.append(position)
    run.resumed = len(run.results)
    run.notify()
    if tracer.enabled or workers == 1 or len(run.todo) == 1:
        for position in run.todo:
            item = items[position]
            run.settle(position, functools.partial(
                run.task, run.spec, item.values, item.seed, run.tracer))
    elif run.todo:
        _run_in_pool(run, min(workers, len(run.todo)))
    return run.results, [items[position] for position in sorted(run.failed)]


def _run_in_pool(run: _Run, workers: int) -> None:
    """Submit every item to a process pool and settle each as it completes.

    A worker process that dies breaks the pool: it fails every future still
    running or queued, and those items are left for the next resume.  The
    pool is shut down before this returns, so no worker outlives the study;
    an interrupt cancels the queued items and waits only for running ones.
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {_submit(pool, run, position): position for position in run.todo}
        for future in as_completed(futures):
            run.settle(futures[future], future.result)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _submit(pool: ProcessPoolExecutor, run: _Run, position: int) -> Future:
    """Submit one item; a pool that broke during submission fails it."""
    item = run.items[position]
    try:
        return pool.submit(run.task, run.spec, item.values, item.seed)
    except BrokenProcessPool as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future
