"""What a process that runs one scenario loads, and how much memory it takes.

The paper's method is many short runs, so a run's fixed cost is paid hundreds
of times per figure and once per pool worker.  Each check starts a fresh
interpreter with only ``src`` on its path: the run path has to work on the
standard library alone and must not load the study plane it does not use,
whether it is started from the library or from ``python -m repro run``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Top-level packages and repro modules a scenario run has no use for.
UNWANTED = ("scipy", "numpy", "networkx", "multiprocessing", "concurrent.futures",
            "repro.experiments.study", "repro.experiments.exec")

#: Peak resident memory allowed for the run below, in MB: it measured 21 with
#: the standard library alone and 117 when scipy and networkx were imported.
PEAK_RSS_LIMIT_MB = 45.0

RUN_ONE_SCENARIO = """
import json, re, sys
from repro.experiments import build_named_scenario
result = build_named_scenario("chain7-vegas-at-2mbps", packet_target=30, seed=3).run()
peak_kb = None
if sys.platform.startswith("linux"):
    # Not ru_maxrss: Linux carries the launching process's peak across exec,
    # so under pytest it would report pytest's memory.  VmHWM is the peak of
    # this interpreter's own address space, which is what ru_maxrss reads in
    # a child started from a small parent such as the ledger's.
    with open("/proc/self/status") as status:
        peak_kb = int(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1))
print(json.dumps({"delivered": result.delivered_packets,
                  "modules": sorted(sys.modules), "peak_kb": peak_kb}))
"""

USE_THE_STUDY_PLANE = """
import json, sys
import repro, repro.experiments
from repro import run_study, SweepSpec, ResultStore
from repro.experiments import StudyExecutionError
missing = [f"{package.__name__}.{name}" for package in (repro, repro.experiments)
           for name in package.__all__ if not hasattr(package, name)]
print(json.dumps({
    "all": sorted(repro.__all__), "missing": missing,
    "homes": [run_study.__module__, SweepSpec.__module__, ResultStore.__module__],
    "same_objects": repro.run_study is repro.experiments.run_study
                    and repro.ResultStore is repro.experiments.exec.ResultStore,
    "study_loaded": "repro.experiments.study" in sys.modules}))
"""

PUBLIC_NAMES = sorted([
    "ScenarioConfig", "PAPER_BANDWIDTHS", "PAPER_HOP_COUNTS",
    "DEFAULT_HOP_COUNTS", "FlowResult", "ScenarioResult", "format_table", "Scenario",
    "FlowSpec", "ScenarioEvent", "ScenarioSpec", "available_scenarios",
    "build_named_scenario", "PointResult", "StudyResult",
    "SweepSpec", "run_study", "ResultStore",
    "chain_topology", "grid_topology", "random_topology",
    "TOPOLOGIES", "TopologyProfile", "TRANSPORTS", "TransportProfile",
    "MOBILITY_MODELS", "MobilityProfile",
    "MetricsRegistry", "TimeSeries", "__version__",
])


def run_child(code: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def is_loaded(name: str, modules) -> bool:
    return any(module == name or module.startswith(name + ".") for module in modules)


def test_a_scenario_run_loads_only_what_it_needs():
    report = run_child(RUN_ONE_SCENARIO)
    assert report["delivered"] >= 30
    assert [name for name in UNWANTED if is_loaded(name, report["modules"])] == []
    if report["peak_kb"] is not None:
        assert report["peak_kb"] / 1024.0 <= PEAK_RSS_LIMIT_MB


def test_a_run_from_the_command_line_loads_only_what_it_needs():
    """``-X importtime`` writes every module the interpreter imports to stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "repro", "run",
                           "chain7-vegas-at-2mbps", "--packets", "30", "--seed", "3"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = [line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
               if line.startswith("import time:")]
    assert "repro.experiments.runner" in modules
    assert [name for name in UNWANTED if is_loaded(name, modules)] == []


def test_the_study_plane_still_imports_from_the_package_roots():
    report = run_child(USE_THE_STUDY_PLANE)
    assert report["all"] == PUBLIC_NAMES
    assert report["missing"] == []
    assert report["homes"] == ["repro.experiments.study", "repro.experiments.study",
                               "repro.experiments.exec"]
    assert report["same_objects"] and report["study_loaded"]


@pytest.mark.parametrize("args", [["--help"], ["run", "--help"]])
def test_python_m_repro_runs_without_a_runpy_warning(args):
    """``python -m repro`` finds ``repro.__main__`` not yet imported (runpy's
    RuntimeWarning would be an error here)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "repro",
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
