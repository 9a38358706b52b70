"""Tier-1 checks of the ledger itself.  No wall-clock assertions."""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from benchmarks.ledger import compare, registry, run, trace
from benchmarks.ledger.child import run_once
from repro.core.engine import Simulator, Timer
from repro.link.wired import WiredBus
from repro.mac.ieee80211 import Ieee80211Mac
from repro.metrics.registry import MetricsRegistry
from repro.phy.radio import Radio

ROOT = Path(__file__).resolve().parents[2]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: The paper's chain at 40 packets: one 5 s slice, ~30k events.
PROBE = registry.Workload("probe", "chain7-vegas-at-2mbps", {"packet_target": 40},
                          True, "")


# ----------------------------------------------------------------------
# Registry and BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_registry():
    recorded = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert recorded == registry.benchmark_manifest()


def test_manifest_meets_the_contract():
    manifest = registry.benchmark_manifest()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(entry["unit"])
               for key in ("end_to_end", "per_layer") for entry in manifest[key])
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"]
               for entry in manifest["workloads"])
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert all(0 <= entry["bound"] <= 0.25 for entry in manifest["end_to_end"])
    setup = next(e for e in manifest["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in manifest["end_to_end"])
    assert all(Path(ROOT, path).is_dir() for path in manifest["paths"])


def test_layers_are_the_packages_under_src_repro():
    packages = {path.name for path in (ROOT / "src" / "repro").iterdir()
                if (path / "__init__.py").is_file()}
    assert set(registry.LAYERS) == packages
    assert set(registry.EVENT_OWNERS) <= packages
    layered = {metric.name.split(".")[0] for metric in registry.PER_LAYER}
    assert layered <= packages | {"other", "trace"}


# ----------------------------------------------------------------------
# Owner attribution
# ----------------------------------------------------------------------
def _bare(cls):
    return object.__new__(cls)


def test_owner_of_a_bound_method_is_its_class_layer():
    assert trace.owner_layer(_bare(Radio).signal_start) == "phy"
    assert trace.owner_layer(_bare(Ieee80211Mac)._difs_complete) == "mac"


def test_owner_of_a_wired_callback_is_link():
    assert trace.owner_layer(_bare(WiredBus)._finish) == "link"


def test_owner_looks_through_a_timer():
    timer = Timer(Simulator(), _bare(Ieee80211Mac)._on_response_timeout)
    assert trace.owner_layer(timer._fire) == "mac"
    assert trace.owner_layer(Timer(Simulator(), lambda: None)._fire) == "other"


def test_owner_of_a_closure_is_its_defining_module():
    sim = Simulator()
    with trace.count_schedules() as counts:
        MetricsRegistry(enabled=True).start_sampling(sim, 1.0)   # schedules `tick`
        sim.schedule(1.0, lambda: None)
        sim.schedule_at(2.0, Timer(sim, _bare(Radio)._signal_end)._fire)
    assert counts == {"metrics": 1, "other": 1, "phy": 1}
    assert "wrapper" not in Simulator.schedule.__qualname__      # restored


# ----------------------------------------------------------------------
# A small run, in process
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def timed():
    return run_once(PROBE, seed=3)


def test_same_seed_gives_the_same_fingerprint(timed):
    again = run_once(PROBE, seed=3)
    assert run.signature(again) == run.signature(timed)
    assert run_once(PROBE, seed=7)["sim_fingerprint"] != timed["sim_fingerprint"]


def test_the_tracer_does_not_perturb_the_simulation(timed):
    traced = run_once(PROBE, seed=3, traced=True)
    assert run.signature(traced) == run.signature(timed)
    assert "failure" not in run.judge(PROBE, traced, timed)

    layers, detail = traced["layers"], traced["trace_detail"]
    shares = sum(layers[f"{layer}.self_share"] for layer in registry.LAYERS)
    assert shares + layers["trace.unattributed_share"] == pytest.approx(1.0)
    assert layers["trace.unattributed_share"] < 0.02
    owners = sum(layers[f"{owner}.events_per_pkt"]
                 for owner in (*registry.EVENT_OWNERS, "other"))
    assert owners == pytest.approx(layers["core.schedules_per_pkt"], rel=1e-12)
    assert sum(detail["schedules_by_owner"].values()) >= traced["events"]
    assert layers["metrics.events_per_pkt"] == 0
    assert layers["link.events_per_pkt"] == 0 and layers["link.self_share"] == 0
    assert layers["net.packet_copies_per_pkt"] > 0
    traced_names = {m.name for m in registry.PER_LAYER if m.source == "traced"}
    assert traced_names - set(layers) == {"trace.overhead_ratio"}

    functions = detail["functions"]
    assert functions[0]["self_s"] == max(row["self_s"] for row in functions) > 0
    assert {row["layer"] for row in functions} <= set(registry.LAYERS)
    assert re.fullmatch(r"[\w/]+\.py:\d+:[\w<>]+", functions[0]["function"])


def test_every_declared_metric_is_reported(timed):
    summary = run.summarise(PROBE, 3, [timed], None)
    assert set(summary["end_to_end"]) == {m.name for m in registry.END_TO_END}
    untraced = {m.name for m in registry.PER_LAYER if m.source != "traced"}
    assert untraced <= set(summary["per_layer"])
    assert all(stat["median"] > 0 for stat in summary["end_to_end"].values())


def test_a_perturbed_counter_counts_as_a_failed_run(timed):
    good = run.judge(PROBE, copy.deepcopy(timed), timed)
    bad = copy.deepcopy(timed)
    bad["events"] += 1
    bad = run.judge(PROBE, bad, timed)
    assert "failure" not in good and "differ" in bad["failure"]
    summary = run.summarise(PROBE, 3, [good, bad], None)
    assert (summary["attempted"], summary["failed"]) == (2, 1)

    short = copy.deepcopy(timed)
    short["reached_packet_target"] = False
    assert "failure" in run.judge(PROBE, short, timed)


def test_a_run_is_held_to_the_recorded_protocol_outputs(timed):
    recorded = run.protocol_outputs(timed)
    assert "failure" not in run.judge(PROBE, copy.deepcopy(timed), None, recorded)
    cut = copy.deepcopy(timed)
    cut["events"] //= 2                 # an event cut leaves the protocols alone
    assert "failure" not in run.judge(PROBE, cut, None, recorded)
    wasteful = copy.deepcopy(timed)
    wasteful["frames"] += 100           # same speed per frame, more frames per packet
    assert "reference.json" in run.judge(PROBE, wasteful, None, recorded)["failure"]
    summary = run.summarise(PROBE, 3, [wasteful], None)     # measured, and not correct
    assert summary["failed"] == 1 and summary["end_to_end"]
    assert not run.summarise(PROBE, 3, [run._died("crashed", "")], None)["end_to_end"]


def test_reference_json_holds_every_workload_and_the_seed_3_sizes():
    recorded = json.loads(run.REFERENCE_FILE.read_text())
    seeds = {key.split()[1] for key in recorded}
    assert set(recorded) == {f"{name} {seed}" for name in registry.WORKLOADS
                             for seed in seeds}
    assert {"1", "3", "7", "10"} <= seeds
    sizes = {name: run.recorded_outputs(workload, 3)[:2]
             for name, workload in registry.WORKLOADS.items()}
    assert sizes == {"chain7_vegas_at": [4032, 165598],
                     "chain7_observed": [4032, 165598],
                     "random120_rwalk_vegas": [548, 52688],
                     "backbone2x7_newreno": [897, 113673],
                     "city1k_rwp": [29, 27578]}
    assert run.recorded_outputs(registry.WORKLOADS["city1k_rwp"], 10**9) is None


def test_a_dead_child_reports_its_stderr_tail():
    report = run._died("child exited with code 1", "Traceback ...\nKeyError: 'x'\n")
    assert "KeyError: 'x'" in report["failure"]


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_compare_verdicts_follow_the_bound():
    rss = next(m for m in registry.END_TO_END if m.name == "peak_rss_mb")  # 10 %
    assert compare.verdict(rss, 100.0, 109.0) == "same"
    assert compare.verdict(rss, 100.0, 111.0) == "worse"
    assert compare.verdict(rss, 100.0, 89.0) == "better"
    higher = registry.Metric("goodput", "kbit/s", "higher", bound=0.10)
    assert compare.verdict(higher, 100.0, 89.0) == "worse"


def test_compare_flags_a_changed_deterministic_output(timed):
    summary = run.summarise(PROBE, 3, [timed, copy.deepcopy(timed)], None)
    ledger = {"seed": 3, "workloads": {"probe": summary}}
    assert not any(line.startswith("!") for line in compare.compare(ledger, ledger))
    moved = copy.deepcopy(ledger)
    moved["workloads"]["probe"]["deterministic"]["goodput_kbps"] *= 0.5
    findings = [line for line in compare.compare(ledger, moved) if line.startswith("!")]
    assert len(findings) == 1 and "goodput_kbps" in findings[0]
