"""Distributed, resumable study execution — the Study API's execution plane.

This package turns a declarative :class:`~repro.experiments.study.SweepSpec`
into a fault-tolerant execution pipeline:

* :mod:`~repro.experiments.exec.workqueue` — the sweep exploded into
  idempotent, fingerprint-keyed :class:`WorkItem` s with lease timeouts and
  bounded retry-with-backoff;
* :mod:`~repro.experiments.exec.store` — a crash-safe on-disk
  :class:`ResultStore` (atomic per-item files + NDJSON journal) from which an
  interrupted study resumes;
* :mod:`~repro.experiments.exec.backends` — :data:`BACKENDS`, the
  :class:`ExecutorBackend` registry (``serial`` reference loop,
  ``process-pool`` pull workers) and :func:`run_work_item`, the task every
  backend runs;
* :mod:`~repro.experiments.exec.aggregate` — streaming assembly of the
  :class:`~repro.experiments.study.StudyResult` with online cross-seed
  confidence intervals and progress/ETA reporting.

:func:`~repro.experiments.study.run_study` is the one driver of this plane;
it takes progress callbacks, explicit backend selection and a store to
resume from::

    from repro.experiments.study import run_study

    study = run_study(spec, backend="process-pool", store=".study-store",
                      progress=lambda s: print(s.describe()))

See ``docs/studies.md`` for the execution model and resume semantics.
"""

from repro.experiments.exec.aggregate import ProgressSnapshot, StreamingAggregator
from repro.experiments.exec.backends import (
    BACKENDS,
    ExecutionContext,
    ExecutorBackend,
    SimulatedCrash,
    StudyExecutionError,
    run_work_item,
)
from repro.experiments.exec.store import ITEM_SCHEMA, ResultStore, StoreWarning
from repro.experiments.exec.workqueue import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    WorkItem,
    WorkItemState,
    WorkQueue,
)

__all__ = [
    "ProgressSnapshot",
    "StreamingAggregator",
    "BACKENDS",
    "ExecutionContext",
    "ExecutorBackend",
    "SimulatedCrash",
    "StudyExecutionError",
    "run_work_item",
    "ITEM_SCHEMA",
    "ResultStore",
    "StoreWarning",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_RETRIES",
    "WorkItem",
    "WorkItemState",
    "WorkQueue",
]
