"""Experiment harness: scenarios, workloads, registries, declarative studies.

Three layers, from low-level to high-level:

* **Workload composition** — :class:`FlowSpec` / :class:`Workload` /
  :class:`ScenarioEvent` / :class:`ScenarioSpec` (and the fluent
  :class:`ScenarioBuilder`) describe *what runs*: per-flow transport
  variants, application timing and budgets, and a scripted timeline of
  mid-run interventions.  See :mod:`repro.experiments.workload`.

* **Scenario execution** — :class:`Scenario` / :func:`run_scenario` turn one
  (:class:`~repro.topology.base.Topology`, :class:`ScenarioConfig`) pair into
  a :class:`ScenarioResult`.  The runner is transport-agnostic: variants are
  resolved through :mod:`repro.transport.registry`, topologies are addressable
  by name through :mod:`repro.topology.registry`, and
  :func:`~repro.experiments.scenarios.build_named_scenario` instantiates
  ready-made presets generated from those registries.
* **Declarative studies** — :class:`SweepSpec` describes a cartesian sweep
  (axes × replications) as data; :class:`StudyRunner` / :func:`run_study`
  execute it through the :mod:`repro.experiments.exec` execution plane: a
  work queue of fingerprint-keyed items drained by a registered executor
  backend (``serial`` or ``process-pool``), checkpointed into a crash-safe
  :class:`~repro.experiments.exec.store.ResultStore` (resume re-executes
  only missing items) and aggregated into a :class:`StudyResult` with
  cross-seed confidence intervals.  The paper's figures are rows of one
  table of such sweeps, ``benchmarks/bench_figures.py``.
"""

import importlib

from repro.experiments.config import (
    DEFAULT_HOP_COUNTS,
    PAPER_BANDWIDTHS,
    PAPER_HOP_COUNTS,
    ScenarioConfig,
    TransportVariant,
    resolve_variant,
    variant_label,
)
from repro.experiments.results import FlowResult, ScenarioResult, format_table
from repro.experiments.runner import Scenario, run_scenario
from repro.experiments.scenarios import (
    available_scenarios,
    build_named_scenario,
    register_scenario,
)
from repro.experiments.workload import (
    FlowSpec,
    ScenarioBuilder,
    ScenarioEvent,
    ScenarioSpec,
    Workload,
    mixed_transport_workload,
)

#: Study-plane names and the module each lives in, imported on first use
#: (PEP 562): running a scenario loads neither the sweep machinery nor the
#: executor backends' multiprocessing and concurrent.futures.
_STUDY_PLANE = {
    **dict.fromkeys(("PointResult", "Study", "StudyResult", "StudyRunner",
                     "SweepSpec", "run_study"), "repro.experiments.study"),
    **dict.fromkeys(("ExecutorBackend", "ResultStore", "StudyExecutionError",
                     "backend_names", "execute_study", "get_backend",
                     "register_backend"), "repro.experiments.exec"),
}


def __getattr__(name: str):
    module = _STUDY_PLANE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "FlowSpec",
    "ScenarioBuilder",
    "ScenarioEvent",
    "ScenarioSpec",
    "Workload",
    "mixed_transport_workload",
    "DEFAULT_HOP_COUNTS",
    "PAPER_BANDWIDTHS",
    "PAPER_HOP_COUNTS",
    "ScenarioConfig",
    "TransportVariant",
    "resolve_variant",
    "variant_label",
    "FlowResult",
    "ScenarioResult",
    "format_table",
    "Scenario",
    "run_scenario",
    "available_scenarios",
    "build_named_scenario",
    "register_scenario",
    "PointResult",
    "Study",
    "StudyResult",
    "StudyRunner",
    "SweepSpec",
    "run_study",
    "ExecutorBackend",
    "ResultStore",
    "StudyExecutionError",
    "backend_names",
    "execute_study",
    "get_backend",
    "register_backend",
]
