"""Resumable study execution: run sweep items in-process or on a process pool.

:func:`~repro.experiments.study.run_study`, the only study driver, explodes a
sweep into one :class:`WorkItem` per (sweep point, replication seed), keyed by
the spec's configuration fingerprint, and hands them to :func:`execute`.  A
scenario run is a pure function of that key, so at-least-once execution is
safe.  Around the runs this module adds resume from a :class:`ResultStore`,
retry with exponential backoff, and, in the pool, a per-attempt timeout and
recovery from dead worker processes.  Items run in-process when the caller's
tracer is enabled (a worker process cannot share it), when one item is left
or with one worker; otherwise on a ``ProcessPoolExecutor``.  The assembled
:class:`~repro.experiments.study.StudyResult` is bit-identical either way
(``docs/studies.md``).
"""

from __future__ import annotations

import bisect
import json
import math
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Tuple, TYPE_CHECKING, Union,
)

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.io import atomic_write_text
from repro.core.tracing import NULL_TRACER, Tracer
from repro.experiments.results import ScenarioResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.study import StudyResult, SweepSpec

#: Seconds an attempt may run in the pool before it counts as failed.
DEFAULT_ITEM_TIMEOUT = 300.0

#: Re-tries granted after an item's first failed attempt.
DEFAULT_MAX_RETRIES = 2

#: Retry ``n`` of an item waits ``BACKOFF_BASE * 2**(n-1)`` seconds.
BACKOFF_BASE = 0.25

#: Version of the per-item envelope; entries of another version are skipped
#: (and re-executed), never parsed on faith.
ITEM_SCHEMA = 1

#: Journal file name: ``.jsonl``, so a ``*.json`` scan for item files never
#: mistakes the journal for a result entry.
JOURNAL_NAME = "journal.jsonl"

# Indirections the tests patch to drive retry backoff on a fake clock.
_clock = time.monotonic
_sleep = time.sleep


# ======================================================================
# The result store
# ======================================================================
class StoreWarning(UserWarning):
    """Warned when a store entry is skipped (unreadable / wrong schema)."""


class ResultStore:
    """Append-safe, fingerprint-keyed store of per-item scenario results.

    Every finished item is one JSON file written atomically
    (write-temp-then-``os.replace``), so a process killed at any instant
    leaves no entry or a complete one.  The journal records how a study ran
    (done / retry / failed / salvaged / resume) but is advisory: the item
    files are the single source of truth.  Entries that are unreadable,
    schema-mismatched or do not decode are skipped with a
    :class:`StoreWarning` and their items re-executed, so a damaged store can
    slow a study down but never poison it.

    Args:
        root: Directory holding the item files and the journal.  Created on
            first write; a missing directory reads as an empty store.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def item_path(self, key: str) -> Path:
        """The on-disk path of one item entry."""
        return self.root / f"{key}.json"

    @property
    def journal_path(self) -> Path:
        """The on-disk path of the NDJSON journal."""
        return self.root / JOURNAL_NAME

    def put(self, key: str, result: ScenarioResult) -> Path:
        """Atomically publish one finished item result and journal it."""
        envelope = {"schema": ITEM_SCHEMA, "key": key, "result": result.to_dict()}
        path = atomic_write_text(
            self.item_path(key),
            json.dumps(envelope, sort_keys=True, separators=(",", ":")),
        )
        self.append_journal({"event": "done", "key": key})
        return path

    def append_journal(self, record: Dict[str, object]) -> None:
        """Append one event line to the journal (single ``write`` call).

        A torn final line (kill mid-append) is ignored by readers, and
        losing the journal loses nothing but history.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(dict(record, ts=time.time()), sort_keys=True)
        with self.journal_path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")

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
        attempts: Attempts started so far.
        error: Description of the last failed attempt, if any.
        not_before: Earliest clock reading at which a retry may start.
    """

    key: str
    point_index: int
    replication: int
    seed: int
    values: Mapping[str, object]
    attempts: int = 0
    error: Optional[str] = None
    not_before: float = 0.0

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
        failed: Items that exhausted their retry budget (terminal).
        retried: Attempts that failed and were granted a retry.
        resumed: Items satisfied from the result store without executing.
        elapsed: Wall-clock seconds since execution started.
        eta: Estimated seconds to completion (None until at least one item
            actually executed in this run).
    """

    total: int
    done: int
    failed: int
    retried: int
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
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.eta is not None and self.remaining:
            parts.append(f"eta {self.eta:.1f}s")
        return " · ".join(parts)


class StudyExecutionError(SimulationError):
    """Raised when work items exhausted their retries.

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
            f"{len(self.failed)} work item(s) failed after retries: "
            f"{described}{more}"
        )


class SimulatedCrash(RuntimeError):
    """Raised by the ``fail_after`` hook to emulate a mid-study kill.

    Carries the number of items completed (and so checkpointed) before it.
    """

    def __init__(self, completed: int) -> None:
        self.completed = completed
        super().__init__(
            f"simulated crash after {completed} completed item(s); "
            "resume with the same --store to continue"
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

    ``todo`` holds the positions of items waiting to run, ascending, so a
    retried item keeps its place ahead of later items once its backoff ends.
    """

    spec: "SweepSpec"
    items: List[WorkItem]
    store: Optional[ResultStore]
    progress: Optional[Callable[[ProgressSnapshot], None]]
    task: WorkTask
    tracer: Tracer
    fail_after: Optional[int]
    max_retries: int
    results: Dict[int, ScenarioResult] = field(default_factory=dict)
    todo: List[int] = field(default_factory=list)
    failed: List[int] = field(default_factory=list)
    retried: int = 0
    resumed: int = 0
    executed: int = 0
    started: float = field(default_factory=lambda: _clock())

    def notify(self) -> None:
        """Hand the progress callback, if any, a snapshot."""
        if self.progress is None:
            return
        elapsed = _clock() - self.started
        done = len(self.results)
        eta = None
        if self.executed:
            eta = elapsed / self.executed * (len(self.items) - done - len(self.failed))
        self.progress(ProgressSnapshot(
            total=len(self.items), done=done, failed=len(self.failed),
            retried=self.retried, resumed=self.resumed, elapsed=elapsed, eta=eta,
        ))

    def journal(self, event: str, item: WorkItem, **extra: object) -> None:
        if self.store is not None:
            self.store.append_journal({"event": event, "item": item.item_id,
                                       "key": item.key, "attempts": item.attempts,
                                       **extra})

    def take_ready(self, now: float) -> Optional[int]:
        """Remove and return the first waiting item out of backoff, if any."""
        for index, position in enumerate(self.todo):
            if self.items[position].not_before <= now:
                return self.todo.pop(index)
        return None

    def unqueue(self, position: int) -> bool:
        """Take ``position`` off the waiting list; False if it is not on it."""
        index = bisect.bisect_left(self.todo, position)
        if index < len(self.todo) and self.todo[index] == position:
            del self.todo[index]
            return True
        return False

    def seconds_until_ready(self, now: float) -> float:
        """Seconds until the earliest backoff ends (``inf`` if none waits)."""
        return max(0.0, min((self.items[position].not_before - now
                             for position in self.todo), default=math.inf))

    def complete(self, position: int, result: ScenarioResult) -> None:
        """Checkpoint one finished item; honours ``fail_after``."""
        if self.store is not None:
            self.store.put(self.items[position].key, result)
        self.results[position] = result
        self.executed += 1
        self.notify()
        if self.fail_after is not None and self.executed >= self.fail_after:
            raise SimulatedCrash(self.executed)

    def fail(self, position: int, error: str, terminal: bool = False) -> None:
        """Record one failed attempt: retry with backoff, or fail the item."""
        item = self.items[position]
        item.error = error
        if terminal or item.attempts > self.max_retries:
            self.failed.append(position)
            self.journal("failed", item, error=error)
        else:
            item.not_before = _clock() + BACKOFF_BASE * 2 ** (item.attempts - 1)
            bisect.insort(self.todo, position)
            self.retried += 1
            self.journal("retry", item, error=error)
        self.notify()

    def fail_attempt(self, position: int, exc: Exception) -> None:
        """A task raised: a ConfigurationError fails the same way on every
        attempt, so it fails the item without retries."""
        self.fail(position, repr(exc), terminal=isinstance(exc, ConfigurationError))


def execute(
    spec: "SweepSpec",
    items: List[WorkItem],
    *,
    store: Optional[ResultStore],
    workers: int,
    tracer: Tracer,
    progress: Optional[Callable[[ProgressSnapshot], None]],
    item_timeout: float,
    max_retries: int,
    task: WorkTask,
    fail_after: Optional[int],
) -> Tuple[Dict[int, ScenarioResult], List[WorkItem]]:
    """Resume ``items`` from ``store``, run the rest and return the outcome.

    Returns:
        The results by position in ``items``, and the items that failed
        after their retries, in ``items`` order.

    Raises:
        SimulatedCrash: After ``fail_after`` items completed in this call.
    """
    run = _Run(spec=spec, items=items, store=store, progress=progress, task=task,
               tracer=tracer, fail_after=fail_after, max_retries=max_retries)
    recovered = {} if store is None else store.resume({item.key for item in items})
    for position, item in enumerate(items):
        if item.key in recovered:
            run.results[position] = recovered[item.key]
        else:
            run.todo.append(position)
    run.resumed = len(run.results)
    if run.resumed:
        store.append_journal({"event": "resume", "recovered": run.resumed,
                              "total": len(items)})
    run.notify()
    if tracer.enabled or workers == 1 or len(run.todo) == 1:
        _run_in_process(run)
    elif run.todo:
        _run_in_pool(run, min(workers, len(run.todo)), item_timeout)
    return run.results, [items[position] for position in sorted(run.failed)]


def _run_in_process(run: _Run) -> None:
    """Run every item in this process, one at a time, sharing the tracer."""
    while run.todo:
        position = run.take_ready(_clock())
        if position is None:
            _sleep(run.seconds_until_ready(_clock()))
            continue
        item = run.items[position]
        item.attempts += 1
        try:
            result = run.task(run.spec, item.values, item.seed, run.tracer)
        except Exception as exc:  # noqa: BLE001 - a failed attempt is recorded
            run.fail_attempt(position, exc)
        else:
            run.complete(position, result)


def _run_in_pool(run: _Run, workers: int, item_timeout: float) -> None:
    """Keep up to ``workers`` attempts in a process pool until all finish.

    ``running`` maps each live attempt's future to (position, attempt
    number, deadline).  An attempt past its deadline is counted as failed and
    moves to ``late``, where it still holds its worker; if it then succeeds
    while its item still waits for the retry, the result is kept.  A dead
    worker process breaks the pool: every running attempt fails and a new
    pool takes over.
    """
    running: Dict[Future, Tuple[int, int, float]] = {}
    late: Dict[Future, Tuple[int, int, float]] = {}
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while run.todo or running:
            now = _clock()
            for future in [f for f, (_, _, end) in running.items() if end <= now]:
                late[future] = running.pop(future)
                run.fail(late[future][0],
                         f"attempt outlived item_timeout ({item_timeout:g} s)")
            broken = False
            while len(running) + len(late) < workers:
                position = run.take_ready(now)
                if position is None:
                    break
                item = run.items[position]
                item.attempts += 1
                try:
                    future = pool.submit(run.task, run.spec, item.values, item.seed)
                except BrokenProcessPool as exc:
                    run.fail(position, f"worker pool broke ({exc})")
                    broken = True
                    break
                running[future] = (position, item.attempts, now + item_timeout)
            if not broken:
                if not running and not late:
                    _sleep(run.seconds_until_ready(_clock()))
                    continue
                timeout = min((deadline for _, _, deadline in running.values()),
                              default=now + item_timeout) - now
                if len(running) + len(late) < workers:
                    timeout = min(timeout, run.seconds_until_ready(now))
                done, _ = wait([*running, *late], timeout=max(timeout, 0.0),
                               return_when=FIRST_COMPLETED)
                for future in done:
                    broken = _settle(run, future, running, late) or broken
            if broken:
                for position, _, _ in running.values():
                    run.fail(position, "worker process died")
                running.clear()
                late.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=workers)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _settle(run: _Run, future: Future, running: Dict[Future, Tuple[int, int, float]],
            late: Dict[Future, Tuple[int, int, float]]) -> bool:
    """Record one finished attempt; True if its worker process died."""
    is_late = future in late
    position, attempt, _ = (late if is_late else running).pop(future)
    try:
        result = future.result()
    except BrokenProcessPool:
        if not is_late:
            run.fail(position, "worker process died")
        return True
    except Exception as exc:  # noqa: BLE001 - a failed attempt is recorded
        if not is_late:
            run.fail_attempt(position, exc)
        return False
    if not is_late:
        run.complete(position, result)
    elif run.items[position].attempts == attempt and run.unqueue(position):
        run.journal("salvaged", run.items[position])
        run.complete(position, result)
    return False
