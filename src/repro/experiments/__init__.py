"""Experiment harness: scenarios, workloads, declarative studies.

Three layers, from low-level to high-level:

* **Workload composition** — :class:`FlowSpec` / :class:`ScenarioEvent` /
  :class:`ScenarioSpec` describe *what runs*:
  per-flow transport variants, application timing and budgets, and a
  scripted timeline of mid-run interventions.  See
  :mod:`repro.experiments.workload`.

* **Scenario execution** — ``Scenario(spec).run()`` turns one
  :class:`ScenarioSpec` into a :class:`ScenarioResult`; it is the only way
  to run a scenario.  The runner is transport-agnostic: variants are
  chosen by name from the :data:`repro.transport.registry.TRANSPORTS` dict,
  topologies from the :data:`repro.topology.registry.TOPOLOGIES` dict, and
  :func:`~repro.experiments.scenarios.build_named_scenario` instantiates
  the ready-made presets of :data:`~repro.experiments.scenarios.SCENARIOS`.
* **Declarative studies** — :class:`SweepSpec` describes a cartesian sweep
  (axes × replications) as data; :func:`run_study`, the only study driver,
  runs each of its fingerprint-keyed items once through
  :mod:`repro.experiments.exec` (in-process or on a process pool),
  checkpointed into a crash-safe :class:`~repro.experiments.exec.ResultStore`
  (resume re-executes only missing items), and aggregates them into a
  :class:`StudyResult` with cross-seed confidence intervals.  The paper's figures are rows of one
  table of such sweeps, ``benchmarks/bench_figures.py``.

``python -m repro`` (:mod:`repro.__main__`) is the command line over all
three: ``run`` a preset, ``study`` a sweep and ``list`` the presets.
"""

import importlib

from repro.experiments.config import (
    DEFAULT_HOP_COUNTS,
    PAPER_BANDWIDTHS,
    PAPER_HOP_COUNTS,
    ScenarioConfig,
)
from repro.experiments.results import FlowResult, ScenarioResult, format_table
from repro.experiments.workload import FlowSpec, ScenarioEvent, ScenarioSpec

#: Names imported on first use (PEP 562), and the module each lives in.
#: Running a scenario loads neither the sweep machinery nor the study
#: executor's concurrent.futures.
_LAZY = {
    "Scenario": "repro.experiments.runner",
    **dict.fromkeys(("available_scenarios", "build_named_scenario"),
                    "repro.experiments.scenarios"),
    **dict.fromkeys(("PointResult", "StudyResult", "SweepSpec", "run_study"),
                    "repro.experiments.study"),
    **dict.fromkeys(("ResultStore", "StudyExecutionError"),
                    "repro.experiments.exec"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "FlowSpec",
    "ScenarioEvent",
    "ScenarioSpec",
    "DEFAULT_HOP_COUNTS",
    "PAPER_BANDWIDTHS",
    "PAPER_HOP_COUNTS",
    "ScenarioConfig",
    "FlowResult",
    "ScenarioResult",
    "format_table",
    "Scenario",
    "available_scenarios",
    "build_named_scenario",
    "PointResult",
    "StudyResult",
    "SweepSpec",
    "run_study",
    "ResultStore",
    "StudyExecutionError",
]
