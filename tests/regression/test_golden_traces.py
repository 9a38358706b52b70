"""Golden-trace determinism regression tests.

Each test runs a fixed-seed scenario with tracing enabled, hashes the full
event trace (every record: time, layer, event, node, details) and compares it
— plus the key :class:`ScenarioResult` metrics, a digest of the whole
metrics snapshot and a digest of its protocol part — against fixtures pinned
in ``golden_traces.json``.  The
fixtures were captured from the kernel *before* the fast-path rework, so a
passing suite proves the optimised kernel is bit-identical to the original.

A mismatch means a kernel or protocol change altered simulation behaviour.
If the change is intentional, regenerate the fixtures with::

    REGEN_GOLDEN_TRACES=1 PYTHONPATH=src python -m pytest tests/regression

and justify the behaviour change in the commit message.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.tracing import NULL_TRACER, Tracer, trace_digest
from repro.experiments.config import ScenarioConfig
from repro.experiments.results import ScenarioResult
from repro.experiments.runner import Scenario
from repro.experiments.scenarios import build_named_scenario
from repro.experiments.workload import ScenarioSpec
from repro.net.packet import reset_packet_ids
from repro.topology.random_topology import random_topology
from repro.topology.registry import TOPOLOGIES

FIXTURE_PATH = Path(__file__).parent / "golden_traces.json"
REGEN = bool(os.environ.get("REGEN_GOLDEN_TRACES"))


def _build_chain(tracer: Tracer) -> Scenario:
    return build_named_scenario("chain7-vegas-2mbps", tracer=tracer,
                                packet_target=200, seed=3)


def _build_grid(tracer: Tracer) -> Scenario:
    return build_named_scenario("grid-newreno-2mbps", tracer=tracer,
                                packet_target=150, seed=5)


def _build_random(tracer: Tracer) -> Scenario:
    topology = random_topology(node_count=50, area=(1300.0, 800.0),
                               flow_count=5, seed=11)
    config = ScenarioConfig(variant="vegas", packet_target=150, seed=11,
                            max_sim_time=120.0)
    return Scenario(ScenarioSpec(topology=topology, config=config), tracer=tracer)


def _build_mobile_chain(tracer: Tracer) -> Scenario:
    # Random-waypoint chain at vehicular speed: seed 3 produces several mid-
    # flow link breaks followed by AODV re-discovery (asserted by
    # tests/integration/test_mobile_integration.py, which runs the identical
    # configuration), so this fixture pins the full move → retry-fail → RERR
    # → RREQ → repair event sequence bit-for-bit.
    return build_named_scenario("chain7-rwp-vegas-2mbps", tracer=tracer,
                                packet_target=60, seed=3, max_sim_time=60.0,
                                mobility_speed=20.0, mobility_pause=1.0)


def _build_backbone(tracer: Tracer) -> Scenario:
    # Heterogeneous plan: two 7-hop wireless cells bridged by an Ethernet
    # spine.  Pins the wired CSMA/CD plane (carrier sense, backoff draws,
    # gateway forwarding) alongside the 802.11 cells bit-for-bit.
    return build_named_scenario("backbone2x7-newreno", tracer=tracer,
                                packet_target=80, seed=9, max_sim_time=120.0)


SCENARIOS = {
    "chain7-vegas-2mbps": _build_chain,
    "grid-newreno-2mbps": _build_grid,
    "random50-vegas-2mbps": _build_random,
    "mobile-chain7-rwp-vegas-2mbps": _build_mobile_chain,
    "backbone2x7-newreno": _build_backbone,
}


#: Handlers each golden run invokes: every signal edge that runs is one,
#: whether it took a trip through the queue or ran in place, so
#: ``events_processed + edges_in_place`` must be this number to the digit.
#: Owed signal ends (see ``repro.phy.radio``) are settled by their radio and
#: are not handlers, nor is a broadcast's completion, which its frame's end
#: runs.
GOLDEN_HANDLERS = {
    "backbone2x7-newreno": 90360,
    "chain7-vegas-2mbps": 107371,
    "grid-newreno-2mbps": 135694,
    "mobile-chain7-rwp-vegas-2mbps": 30905,
    "random50-vegas-2mbps": 337687,
}


def _metrics(result: ScenarioResult) -> dict:
    """The result fields pinned alongside the trace hash."""
    return {
        "delivered_packets": result.delivered_packets,
        "simulated_time": result.simulated_time,
        "mac_frames_sent": result.mac_frames_sent,
        "false_route_failures": result.false_route_failures,
        "per_flow_delivered": [flow.delivered_packets for flow in result.flows],
        "per_flow_retx": [flow.retransmissions for flow in result.flows],
    }


def _snapshot_digest(result: ScenarioResult) -> str:
    """SHA-256 of the whole metrics snapshot as JSON: every name, every
    value, and whether it is ``0`` or ``0.0``."""
    return hashlib.sha256(json.dumps(result.metrics).encode()).hexdigest()


#: Snapshot entries that count how the engine ran the handlers, not what the
#: simulated network did.
ENGINE_COUNTS = ("core.events_processed", "core.edges_in_place")


def _protocol_digest(result: ScenarioResult) -> str:
    """SHA-256 of the snapshot without :data:`ENGINE_COUNTS`: what a change
    to how handlers are scheduled must leave exactly as it was."""
    protocol = {name: value for name, value in result.metrics.items()
                if name not in ENGINE_COUNTS}
    return hashlib.sha256(json.dumps(protocol).encode()).hexdigest()


def _run_golden(name: str) -> dict:
    """The pinned fields of one golden run, plus its handler counts."""
    # Packet uids appear in trace records and come from a process-global
    # counter, so every golden run starts from a known counter state.
    reset_packet_ids()
    tracer = Tracer(enabled=True)
    result = SCENARIOS[name](tracer).run()
    return {"trace_sha256": trace_digest(tracer), "metrics": _metrics(result),
            "snapshot_sha256": _snapshot_digest(result),
            "protocol_sha256": _protocol_digest(result),
            "events": result.metrics["core.events_processed"],
            "edges": result.metrics["core.edges_in_place"]}


def _load_fixtures() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.skipif(REGEN, reason="regenerating fixtures")
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace(name):
    fixtures = _load_fixtures()
    assert name in fixtures, f"no fixture pinned for {name}"
    actual = _run_golden(name)
    expected = fixtures[name]
    assert actual["metrics"] == expected["metrics"], (
        f"{name}: result metrics diverged from the pinned golden run"
    )
    assert actual["trace_sha256"] == expected["trace_sha256"], (
        f"{name}: event trace diverged from the pinned golden run "
        "(simulation behaviour changed)"
    )
    assert actual["protocol_sha256"] == expected["protocol_sha256"], (
        f"{name}: a protocol metric's name, value or type changed"
    )
    assert actual["snapshot_sha256"] == expected["snapshot_sha256"], (
        f"{name}: a metric name, value or type in the snapshot changed"
    )
    assert actual["events"] + actual["edges"] == GOLDEN_HANDLERS[name]
    # At least half the handlers are signal edges that skipped the queue.
    assert actual["edges"] > actual["events"]


@pytest.mark.skipif(REGEN, reason="regenerating fixtures")
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_untraced_run_matches_the_pinned_golden(name):
    """Ledger, command-line and study runs take the untraced path
    (``NULL_TRACER``): it runs the simulation the traced golden pins, to the
    same snapshot and the same handler count."""
    reset_packet_ids()
    result = SCENARIOS[name](NULL_TRACER).run()
    expected = _load_fixtures()[name]
    assert _metrics(result) == expected["metrics"]
    assert _snapshot_digest(result) == expected["snapshot_sha256"]
    assert (result.metrics["core.events_processed"]
            + result.metrics["core.edges_in_place"]) == GOLDEN_HANDLERS[name]


def test_golden_runs_are_reproducible_within_process():
    """The same seeded scenario twice in one process yields identical traces."""
    first = _run_golden("chain7-vegas-2mbps")
    second = _run_golden("chain7-vegas-2mbps")
    assert first == second


#: The sampled points that are no preset, each as (topology family, transport
#: variant, bandwidth in Mbit/s, mobility model); a chain is the paper's 7-hop
#: one, a grid the builder's default.
SAMPLE_POINTS = {
    "chain7-newreno-at-optwin-2mbps": ("chain", "newreno-at-optwin", 2.0, "static"),
    "chain7-paced-udp-2mbps": ("chain", "paced-udp", 2.0, "static"),
    "chain7-mht-vegas-at-2mbps": ("chain", "vegas-at", 2.0, "manhattan"),
    "chain7-rwalk-newreno-2mbps": ("chain", "newreno", 2.0, "random-walk"),
    "chain7-rwp-paced-udp-2mbps": ("chain", "paced-udp", 2.0, "random-waypoint"),
    "grid-newreno-5.5mbps": ("grid", "newreno", 5.5, "static"),
    "grid-mht-newreno-at-2mbps": ("grid", "newreno-at", 2.0, "manhattan"),
}


def _sample_spec(name: str) -> ScenarioSpec:
    family, variant, bandwidth, mobility = SAMPLE_POINTS[name]
    params = {"hops": 7} if family == "chain" else {}
    return ScenarioSpec(
        topology=TOPOLOGIES.get(family).build(**params),
        config=ScenarioConfig(variant=variant, bandwidth_mbps=bandwidth,
                              mobility=mobility))


#: A deterministic sample of runs: one representative per transport family,
#: each mobility model, the random field with UDP background, mixed
#: transports and the wired backbone, run small.  Names not in
#: :data:`SAMPLE_POINTS` are presets.
PRESET_SAMPLE = [
    "chain7-vegas-2mbps",
    "chain7-newreno-at-optwin-2mbps",
    "chain7-paced-udp-2mbps",
    "chain7-mixed-newreno-vegas",
    "chain7-mht-vegas-at-2mbps",
    "chain7-rwalk-newreno-2mbps",
    "chain7-rwp-paced-udp-2mbps",
    "grid-newreno-5.5mbps",
    "grid-mht-newreno-at-2mbps",
    "random50-tcp-with-udp-background",
    "backbone2x7-mixed-newreno-vegas",
]


def _run_preset(name: str) -> dict:
    reset_packet_ids()
    tracer = Tracer(enabled=True)
    overrides = {"packet_target": 40, "seed": 7, "max_sim_time": 2.0}
    if name in SAMPLE_POINTS:
        scenario = Scenario(_sample_spec(name).with_config(**overrides),
                            tracer=tracer)
    else:
        scenario = build_named_scenario(name, tracer=tracer, **overrides)
    result = scenario.run()
    return {"trace_sha256": trace_digest(tracer), "metrics": _metrics(result),
            "handlers": result.metrics["core.events_processed"]
            + result.metrics["core.edges_in_place"]}


@pytest.mark.parametrize("name", PRESET_SAMPLE)
def test_preset_rerun_is_identical(name):
    """A second run of a sampled preset in the same process replays the
    first bit for bit: what one run leaves cached (effective flow configs,
    delivery tables) changes nothing in the next."""
    first = _run_preset(name)
    assert first["metrics"]["delivered_packets"] > 0
    assert _run_preset(name) == first


@pytest.mark.skipif(not REGEN, reason="set REGEN_GOLDEN_TRACES=1 to regenerate")
def test_regenerate_fixtures():
    fixtures = _load_fixtures()
    for name in sorted(SCENARIOS):
        run = _run_golden(name)
        fixtures[name] = {key: run[key] for key in
                          ("trace_sha256", "metrics", "snapshot_sha256",
                           "protocol_sha256")}
    FIXTURE_PATH.write_text(json.dumps(fixtures, indent=2) + "\n")
