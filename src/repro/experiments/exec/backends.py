"""Executor backends: pluggable drivers that drain the study work queue.

Mirrors the transport/topology/mobility registries for the execution plane:
an :class:`ExecutorBackend`, registered in :data:`BACKENDS`, is a named
strategy for pulling :class:`~repro.experiments.exec.workqueue.WorkItem` s
off the shared :class:`~repro.experiments.exec.workqueue.WorkQueue` and
turning them into stored, aggregated results.  Two backends ship built in:

``serial``
    The reference backend: one in-process loop, lease → run → complete.
    Deterministic, traceable (it is the only backend that can share the
    caller's tracer object) and the behavioural baseline every other
    backend must match bit-for-bit.

``process-pool``
    N worker processes *pulling* work through a sliding window of at most N
    outstanding items — not a pre-chunked map, so stragglers never starve
    idle workers, newly re-queued retries are picked up immediately, and a
    dead worker process (``BrokenProcessPool``) costs only the items it held:
    they are re-queued with backoff and the pool is rebuilt.

Both drive the same queue/store/aggregator machinery through an
:class:`ExecutionContext` that :func:`~repro.experiments.study.run_study`,
the single study driver, builds.
The registry seam is what a future multi-host backend plugs into: anything
that can lease items and publish fingerprint-keyed results is a backend.
"""

from __future__ import annotations

import os
import time as _time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING,
)

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.registry import NamedRegistry
from repro.core.tracing import NULL_TRACER, Tracer
from repro.experiments.exec.aggregate import ProgressSnapshot, StreamingAggregator
from repro.experiments.exec.store import ResultStore
from repro.experiments.exec.workqueue import (
    WorkItem,
    WorkItemState,
    WorkQueue,
)
from repro.experiments.results import ScenarioResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.study import StudyResult, SweepSpec

#: Seconds the serial loop / pool driver sleeps while every pending item is
#: in retry backoff.
_BACKOFF_POLL = 0.02


class StudyExecutionError(SimulationError):
    """Raised when work items exhausted their retries and stayed FAILED.

    Attributes:
        failed: The terminally failed :class:`WorkItem` s.
        partial: A :class:`~repro.experiments.study.StudyResult` over
            everything that *did* complete — the checkpointed items remain in
            the store, so fixing the cause and resuming re-executes only the
            failures.
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
    """Raised by the ``fail_after`` test hook to emulate a mid-study kill.

    Carries the number of items completed (and therefore checkpointed) before
    the simulated crash, so tests and the ``study-smoke`` CI job can assert
    the resume executes exactly the remainder.
    """

    def __init__(self, completed: int) -> None:
        self.completed = completed
        super().__init__(
            f"simulated crash after {completed} completed item(s); "
            "resume with the same --store to continue"
        )


# ======================================================================
# The work-item task
# ======================================================================
def run_work_item(spec: "SweepSpec", values: Mapping[str, object], seed: int,
                  tracer: Tracer = NULL_TRACER) -> ScenarioResult:
    """Execute one (point, seed) scenario run — the unit every backend runs.

    Module level and driven purely by ``(spec, axis values, seed)``, so it
    pickles by reference into worker processes and is idempotent: the same
    inputs always produce the same result bits (determinism is the
    scenario's own guarantee).
    """
    from repro.experiments.runner import Scenario

    return Scenario(spec.scenario_for(values, seed), tracer=tracer).run()


#: Signature of the per-item task a backend executes (test seam: the
#: crash-resume suite substitutes counting/failing tasks).
WorkTask = Callable[..., ScenarioResult]


# ======================================================================
# Execution context shared by every backend
# ======================================================================
@dataclass
class ExecutionContext:
    """Everything a backend needs to drain one study.

    The context owns the cross-cutting bookkeeping — checkpointing completed
    items into the store, feeding the streaming aggregator, journalling and
    progress callbacks, the ``fail_after`` crash hook — so a backend only
    decides *where* items run.
    """

    spec: "SweepSpec"
    queue: WorkQueue
    aggregator: StreamingAggregator
    store: Optional[ResultStore] = None
    tracer: Tracer = NULL_TRACER
    max_workers: Optional[int] = None
    progress: Optional[Callable[[ProgressSnapshot], None]] = None
    task: WorkTask = run_work_item
    fail_after: Optional[int] = None
    resumed: int = 0
    clock: Callable[[], float] = _time.monotonic
    _executed: int = field(default=0, init=False)
    _started: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self._started = self.clock()

    # -- progress ------------------------------------------------------
    def snapshot(self) -> ProgressSnapshot:
        """The current progress observation."""
        elapsed = self.clock() - self._started
        counts = self.queue.counts()
        executed = counts["done"] - self.resumed
        eta = None
        if executed > 0:
            remaining = counts["total"] - counts["done"] - counts["failed"]
            eta = elapsed / executed * remaining
        return ProgressSnapshot(
            total=counts["total"], done=counts["done"], failed=counts["failed"],
            retried=counts["retried"], resumed=self.resumed,
            elapsed=elapsed, eta=eta,
        )

    def notify(self) -> None:
        """Invoke the progress callback, if any."""
        if self.progress is not None:
            self.progress(self.snapshot())

    # -- transitions ---------------------------------------------------
    def complete(self, item: WorkItem, result: ScenarioResult) -> None:
        """Checkpoint + aggregate one finished item; honours ``fail_after``."""
        self.queue.complete(item)
        self._record(item, result)

    def salvage(self, item: WorkItem, result: ScenarioResult) -> None:
        """Keep the late result of a lease-expired worker that finished.

        The item's lease expired (it is back in PENDING awaiting retry) but
        the original worker produced its result after all.  Items are
        idempotent, so the late result is bit-identical to what a re-run
        would produce — record it and skip the re-execution.
        """
        self.queue.mark_done(item)
        if self.store is not None:
            self.store.append_journal({
                "event": "salvaged", "item": item.item_id, "key": item.key,
                "attempts": item.attempts,
            })
        self._record(item, result)

    def _record(self, item: WorkItem, result: ScenarioResult) -> None:
        if self.store is not None:
            self.store.put(item.key, result)
        self.aggregator.add(item.point_index, item.replication, result)
        self._executed += 1
        self.notify()
        if self.fail_after is not None and self._executed >= self.fail_after:
            raise SimulatedCrash(self._executed)

    def fail_item(self, item: WorkItem, exc: BaseException) -> None:
        """Record one failed attempt, retrying unless clearly non-transient.

        A :class:`ConfigurationError` (bad sweep point) fails the same way on
        every attempt, so it turns the item terminally FAILED immediately
        instead of burning the retry budget on re-simulating it.
        """
        terminal = isinstance(exc, ConfigurationError)
        self.queue.fail(item, repr(exc), self.clock(), terminal=terminal)
        self.record_failure(item, repr(exc))

    def record_failure(self, item: WorkItem, error: str) -> None:
        """Journal + report one failed attempt (item already transitioned)."""
        if self.store is not None:
            self.store.append_journal({
                "event": "failed" if item.state is WorkItemState.FAILED else "retry",
                "item": item.item_id, "key": item.key,
                "attempts": item.attempts, "error": error,
            })
        self.notify()

    def worker_count(self) -> int:
        """Effective pool size: bounded by cores and by the work available."""
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, min(workers, self.queue.pending_count or 1))


# ======================================================================
# Built-in backends
# ======================================================================
def _run_serial(ctx: ExecutionContext) -> None:
    """Reference backend: lease → run → complete in one process.

    The only backend that can hand the caller's tracer to each scenario
    (worker processes cannot share a tracer object).
    """
    queue = ctx.queue
    while not queue.finished:
        now = ctx.clock()
        for item in queue.expire_leases(now):
            ctx.record_failure(item, item.error or "lease expired")
        item = queue.lease("serial-0", now)
        if item is None:
            if queue.pending_count:
                _time.sleep(min(queue.seconds_until_ready(ctx.clock()),
                                _BACKOFF_POLL))
                continue
            break
        try:
            result = ctx.task(ctx.spec, item.values, item.seed, ctx.tracer)
        except Exception as exc:  # noqa: BLE001 - task failures retry/fail
            ctx.fail_item(item, exc)
        else:
            ctx.complete(item, result)


def _run_process_pool(ctx: ExecutionContext) -> None:
    """N worker processes pulling items through a sliding submission window.

    At most ``workers`` items are outstanding; each completion immediately
    frees a slot for the next lease, so workers are never idle while work is
    pending and re-queued retries are dispatched without waiting for a chunk
    boundary.  A worker-process death (``BrokenProcessPool``) re-queues every
    in-flight item with backoff and rebuilds the pool; the study continues.

    Every submission records the item's lease token (its ``attempts`` count
    at submit time).  A future whose token no longer matches the item's
    current lease is *stale* — its lease expired and the item was re-queued
    while the worker was still running.  Stale completions never transition
    the queue (the item may be PENDING, re-LEASED or already DONE by then);
    a stale *success* whose item is still awaiting retry is salvaged instead
    of re-executed, because items are idempotent.
    """
    queue = ctx.queue
    if queue.finished:
        return
    workers = ctx.worker_count()
    pool = ProcessPoolExecutor(max_workers=workers)
    #: future -> (item, lease token at submit time)
    in_flight: Dict[object, Tuple[WorkItem, int]] = {}

    def holds_lease(item: WorkItem, token: int) -> bool:
        """True while ``token`` is still the item's current lease."""
        return (item.state is WorkItemState.LEASED
                and item.attempts == token)

    def crash_recovery(reason: str) -> None:
        """Re-queue every item still leased to us and replace the pool.

        Items whose lease already expired (or that were re-leased and even
        completed since submission) are left alone — failing them here would
        be an invalid state transition.
        """
        nonlocal pool, in_flight
        for doomed, token in in_flight.values():
            if holds_lease(doomed, token):
                queue.fail(doomed, reason, ctx.clock())
                ctx.record_failure(doomed, reason)
        in_flight = {}
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=workers)

    try:
        while not queue.finished:
            now = ctx.clock()
            for item in queue.expire_leases(now):
                ctx.record_failure(item, item.error or "lease expired")
            while len(in_flight) < workers:
                item = queue.lease(f"pool-{id(pool):x}", now)
                if item is None:
                    break
                try:
                    future = pool.submit(ctx.task, ctx.spec, item.values,
                                         item.seed)
                except BrokenProcessPool as exc:
                    queue.fail(item, f"worker pool broke ({exc})", ctx.clock())
                    ctx.record_failure(item, repr(exc))
                    crash_recovery(f"worker pool broke ({exc})")
                    break
                in_flight[future] = (item, item.attempts)
            if not in_flight:
                if queue.pending_count:
                    _time.sleep(min(queue.seconds_until_ready(ctx.clock()),
                                    _BACKOFF_POLL))
                    continue
                break
            done, _ = wait(in_flight,
                           timeout=_wait_timeout(ctx, in_flight, workers),
                           return_when=FIRST_COMPLETED)
            pool_broke = False
            for future in done:
                item, token = in_flight.pop(future)
                current = holds_lease(item, token)
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    if current:
                        queue.fail(item, f"worker process died ({exc})",
                                   ctx.clock())
                        ctx.record_failure(item,
                                           f"worker process died ({exc})")
                    pool_broke = True
                except Exception as exc:  # noqa: BLE001 - failures retry/fail
                    if current:
                        ctx.fail_item(item, exc)
                else:
                    if current:
                        ctx.complete(item, result)
                    elif (item.state is WorkItemState.PENDING
                          and item.attempts == token):
                        # Hung-but-finished worker: the lease expired but the
                        # item was not re-leased yet — keep the late result.
                        ctx.salvage(item, result)
                    # else: a newer lease owns (or finished) the item; drop.
            if pool_broke:
                crash_recovery("worker pool broke; item re-queued")
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _wait_timeout(ctx: ExecutionContext,
                  in_flight: Mapping[object, Tuple[WorkItem, int]],
                  workers: int) -> float:
    """How long the pool driver may block in ``wait()``.

    Bounded by the earliest in-flight lease deadline (so expiry sweeps run
    on time, not up to a full ``lease_timeout`` late) and by the earliest
    retry-backoff expiry when there is free capacity to lease into.
    """
    now = ctx.clock()
    timeout = ctx.queue.lease_timeout
    deadlines = [item.lease_deadline for item, token in in_flight.values()
                 if item.state is WorkItemState.LEASED
                 and item.lease_deadline is not None]
    if deadlines:
        timeout = min(timeout, min(deadlines) - now)
    if len(in_flight) < workers and ctx.queue.pending_count:
        timeout = min(timeout, ctx.queue.seconds_until_ready(now))
    return max(timeout, _BACKOFF_POLL)


# ======================================================================
# Backend registry (mirrors the transport/topology/mobility registries)
# ======================================================================
@dataclass(frozen=True)
class ExecutorBackend:
    """One registered execution strategy.

    Attributes:
        name: Canonical registry key (``"serial"``, ``"process-pool"``).
        runner: Callable draining an :class:`ExecutionContext`'s queue.
        description: One-line human description (``python -m repro list
            backends``).
    """

    name: str
    runner: Callable[[ExecutionContext], None]
    description: str = ""


#: Every executor backend, by name.
BACKENDS = NamedRegistry("executor backend")

BACKENDS.register(ExecutorBackend(
    name="serial",
    runner=_run_serial,
    description="reference in-process loop; deterministic and tracer-capable",
))

BACKENDS.register(ExecutorBackend(
    name="process-pool",
    runner=_run_process_pool,
    description="N worker processes pulling items from the queue; survives "
                "worker death via lease re-queue and pool rebuild",
))
