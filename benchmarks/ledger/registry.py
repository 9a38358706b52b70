"""What the ledger runs and what it reports: workloads, metrics, layers.

``BENCHMARK.json`` at the repository root is :func:`benchmark_manifest`
written out; ``test_ledger.py`` fails when the two drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

#: The command and directory ``BENCHMARK.json`` records.
COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

#: Where a run leaves its files (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Host seconds one driver run keeps starting fresh children for.
RUN_SECONDS = 20

#: Packages under ``src/repro/``; a layer is one of these.
LAYERS = ("core", "phy", "mac", "link", "net", "routing", "transport", "app",
          "mobility", "metrics", "experiments", "topology")

#: Layers that own scheduled events on at least one workload.  Anything else
#: lands in ``other.events_per_pkt`` so the owners always sum to
#: ``core.schedules_per_pkt``.
EVENT_OWNERS = ("phy", "mac", "link", "routing", "transport", "app",
                "mobility", "metrics")


@dataclass(frozen=True)
class Workload:
    """One scenario the ledger runs through ``build_named_scenario``.

    Attributes:
        preset: Name passed to ``build_named_scenario``.
        overrides: ``ScenarioConfig`` overrides (``seed`` is added per run).
        target_bound: True when the run must reach ``packet_target``; False
            for the horizon-bounded city run, which only has to deliver.
        why: One line for ``BENCHMARK.json``.
    """

    name: str
    preset: str
    overrides: Mapping[str, object]
    target_bound: bool
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "chain7_vegas_at", "chain7-vegas-at-2mbps", {"packet_target": 4000}, True,
        "The paper's 7-hop chain: low PHY fan-out (9 events/frame), so engine, "
        "MAC and PHY split the time; a PHY-only change helps least here, a "
        "scheduler or MAC change most."),
    Workload(
        "chain7_observed", "chain7-vegas-at-2mbps",
        {"packet_target": 4000, "metrics": True}, True,
        "Same run with the metrics plane sampling: the cost of observability "
        "when on; the other four show it costs nothing when off."),
    Workload(
        "random120_rwalk_vegas", "random-rwalk-vegas-2mbps",
        {"packet_target": 400}, True,
        "The paper's 120-node random field under random walk: ~32 receivers "
        "per frame, AODV repair, link diffing and cache invalidation live; "
        "PHY does almost all the work."),
    Workload(
        "backbone2x7_newreno", "backbone2x7-newreno", {"packet_target": 800}, True,
        "Only run that uses repro.link (CSMA/CD bus, gateways) with static "
        "routes and NewReno's timeout-heavy MAC mix; a routing or mobility "
        "change must show no change here."),
    Workload(
        "city1k_rwp", "city1k-rwp",
        {"max_sim_time": 2.0, "packet_target": 200}, False,
        "Scale: 1000 nodes, 10 flows, network-wide AODV floods over the grid "
        "index; the only run with real set-up time and RSS.  Horizon-bounded "
        "stand-in for city10k, which does not fit."),
)}


@dataclass(frozen=True)
class Metric:
    """One reported number; ``README.md`` defines each and says what it moves.

    Attributes:
        better: ``"lower"`` or ``"higher"``.
        bound: End-to-end only: share of the parent's median by which the
            metric may worsen before it counts as a regression.
        source: ``"timed"`` (hooks off), ``"result"`` (the timed run's
            ``ScenarioResult.metrics``) or ``"traced"`` (the traced run).
    """

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    source: str = "timed"


END_TO_END: Tuple[Metric, ...] = (
    Metric("host_us_per_frame", "us", "lower", bound=0.20),
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10),
    Metric("events_per_frame", "count", "lower", bound=0.15),
)


def _traced(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, source="traced")


def _result(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, source="result")


PER_LAYER: Tuple[Metric, ...] = (
    *(_traced(f"{layer}.self_share", "share") for layer in LAYERS),
    *(_traced(f"{owner}.events_per_pkt", "count") for owner in (*EVENT_OWNERS, "other")),
    _traced("core.schedules_per_pkt", "count"),
    _traced("core.fired_share", "share", "higher"),
    _traced("core.handler_us_per_event", "us"),
    _traced("phy.events_per_tx", "count"),
    _traced("phy.set_positions_ms", "ms"),
    _traced("net.packet_copies_per_pkt", "count"),
    _traced("mobility.update_ms", "ms"),
    _traced("topology.build_s", "s"),
    _traced("experiments.collect_s", "s"),
    _traced("trace.overhead_ratio", "ratio"),
    _traced("trace.unattributed_share", "share"),
    Metric("experiments.wall_s", "s", "lower"),
    Metric("experiments.import_s", "s", "lower"),
    Metric("experiments.build_s", "s", "lower"),
    _result("core.events_per_pkt", "count"),
    _result("transport.goodput_kbps", "kbit/s", "higher"),
    _result("phy.frames_sent", "count"),
    _result("phy.corrupted_share", "share"),
    _result("mac.frames_per_pkt", "count"),
    _result("mac.attempts_per_success", "ratio"),
    _result("mac.response_timeouts", "count"),
    _result("mac.retry_drops", "count"),
    _result("routing.control_per_pkt", "count"),
    _result("routing.discoveries", "count"),
    _result("routing.false_route_failures", "count"),
    _result("routing.drops", "count"),
    _result("transport.retx_per_pkt", "count"),
    _result("transport.timeouts", "count"),
    _result("transport.acks_per_pkt", "count"),
    _result("transport.avg_window", "pkt", "higher"),
    _result("link.wired_frames", "count"),
    _result("link.wired_collisions", "count"),
    _result("mobility.updates", "count"),
    _result("mobility.link_changes", "count"),
)


def benchmark_manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def units() -> Dict[str, str]:
    """Unit of every metric, by name."""
    return {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}


def metric_values(names: Tuple[Metric, ...], values: Mapping[str, float]) -> dict:
    """``{name: {"value", "unit"}}`` for the contract's last line."""
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in names}
