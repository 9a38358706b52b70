"""Macro benchmarks: full protocol-stack scenarios timed end to end.

Four workloads bracket the simulator's operating range:

* ``chain7_ftp`` — the paper's canonical 7-hop chain with one FTP flow over
  TCP with ACK thinning (the ``vegas-at`` variant), the scenario every figure
  in the paper is built from.
* ``random50_stress`` — 50 nodes placed uniformly in a 1300 m × 800 m area
  with five concurrent flows: heavy contention, hidden terminals and AODV
  recovery traffic, i.e. the event mix a production-scale run produces.
* ``mobile_chain7`` — the golden-trace mobility scenario: the 7-hop chain
  under random-waypoint movement, with mid-flow link breaks, RERRs and AODV
  re-discovery on top of the static event mix.
* ``mobile_random50`` — the stress topology with every node on a random walk:
  periodic batch position updates plus delivery-cache rebuilds at scale (the
  channel-side cost is isolated by
  :func:`benchmarks.perf.mobility_bench.bench_position_churn`).

Each benchmark reports wall time, handlers run and handlers/sec (``events`` /
``events_per_sec``: events through the queue plus signal edges run in place,
a count that is the same on every kernel), and is also run with the legacy
kernel swapped in (see :mod:`benchmarks.perf.legacy`) to yield a same-machine
speedup.

``chain7_metrics`` additionally runs the chain workload with the time-series
metrics plane enabled and reports ``overhead_vs_disabled`` (wall-time ratio
against the plain ``chain7_ftp`` run of the same suite invocation), which is
what ``tools/check_perf_overhead.py`` guards in CI.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.scenarios import build_named_scenario
from repro.net.packet import reset_packet_ids
from repro.topology.random_topology import random_topology

from repro.core.backends import kernel_backend_names

from benchmarks.perf.legacy import legacy_kernel
from benchmarks.perf.timing import best_of

#: Default in-order packet targets (tuned so the full suite stays ≈30 s).
CHAIN_PACKET_TARGET = 400
STRESS_PACKET_TARGET = 400

#: 50-node stress topology parameters: the paper's random-placement density,
#: scaled from 120 nodes / 2500×1000 m² down to 50 nodes.
STRESS_NODE_COUNT = 50
STRESS_AREA = (1300.0, 800.0)
STRESS_FLOW_COUNT = 5
STRESS_SEED = 11


def _run_and_measure(scenario: Scenario) -> Dict[str, float]:
    start = time.perf_counter()
    result = scenario.run()
    wall = time.perf_counter() - start
    events = scenario.sim.events_processed + scenario.sim.edges_in_place
    return {
        "wall_time": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "delivered_packets": result.delivered_packets,
        "simulated_time": result.simulated_time,
    }


def _build_chain7(packet_target: int, backend: str = "reference") -> Scenario:
    reset_packet_ids()
    return build_named_scenario("chain7-vegas-at-2mbps", packet_target=packet_target,
                                seed=3, kernel_backend=backend)


def _build_chain7_metrics(packet_target: int) -> Scenario:
    reset_packet_ids()
    return build_named_scenario("chain7-vegas-at-2mbps", packet_target=packet_target,
                                seed=3, metrics=True)


def _build_random50(packet_target: int, backend: str = "reference") -> Scenario:
    reset_packet_ids()
    topology = random_topology(node_count=STRESS_NODE_COUNT, area=STRESS_AREA,
                               flow_count=STRESS_FLOW_COUNT, seed=STRESS_SEED)
    config = ScenarioConfig(variant="vegas", packet_target=packet_target,
                            seed=STRESS_SEED, max_sim_time=200.0,
                            kernel_backend=backend)
    return Scenario(topology, config)


def _build_mobile_chain7(packet_target: int, backend: str = "reference") -> Scenario:
    reset_packet_ids()
    return build_named_scenario("chain7-rwp-vegas-2mbps",
                                packet_target=packet_target, seed=3,
                                max_sim_time=120.0, mobility_speed=20.0,
                                mobility_pause=1.0, kernel_backend=backend)


def _build_mobile_random50(packet_target: int, backend: str = "reference") -> Scenario:
    reset_packet_ids()
    topology = random_topology(node_count=STRESS_NODE_COUNT, area=STRESS_AREA,
                               flow_count=STRESS_FLOW_COUNT, seed=STRESS_SEED)
    config = ScenarioConfig(variant="vegas", packet_target=packet_target,
                            seed=STRESS_SEED, max_sim_time=200.0,
                            mobility="random-walk", mobility_speed=5.0,
                            kernel_backend=backend)
    return Scenario(topology, config)


def bench_chain7_ftp(packet_target: int = CHAIN_PACKET_TARGET) -> Dict[str, float]:
    """7-hop chain, one FTP flow over TCP with ACK thinning at 2 Mbit/s."""
    return _run_and_measure(_build_chain7(packet_target))


def bench_random50_stress(packet_target: int = STRESS_PACKET_TARGET) -> Dict[str, float]:
    """50-node random topology, five concurrent Vegas flows."""
    return _run_and_measure(_build_random50(packet_target))


def bench_mobile_chain7(packet_target: int = CHAIN_PACKET_TARGET) -> Dict[str, float]:
    """Random-waypoint 7-hop chain with one Vegas flow (route breaks included)."""
    return _run_and_measure(_build_mobile_chain7(packet_target))


def bench_mobile_random50(packet_target: int = STRESS_PACKET_TARGET) -> Dict[str, float]:
    """50 random-walking nodes, five concurrent Vegas flows."""
    return _run_and_measure(_build_mobile_random50(packet_target))


def bench_chain7_metrics(packet_target: int = CHAIN_PACKET_TARGET) -> Dict[str, float]:
    """The chain workload with time-series metrics collection enabled."""
    return _run_and_measure(_build_chain7_metrics(packet_target))


def run_scenario_benchmarks(
    chain_target: int = CHAIN_PACKET_TARGET,
    stress_target: int = STRESS_PACKET_TARGET,
) -> Dict[str, Dict[str, float]]:
    """Run every macro benchmark on every kernel backend plus the legacy one.

    Each measurement is best-of-N with recorded run-to-run spread (see
    :mod:`benchmarks.perf.timing`).

    Returns:
        Mapping of benchmark name to its result dict.  The bare name holds
        the ``reference`` backend's numbers with a ``speedup_vs_legacy``
        field; ``{name}_legacy`` holds the embedded pre-optimisation kernel;
        every other registered backend adds a ``{name}_{backend}`` entry
        carrying ``speedup_vs_reference``.
    """
    results: Dict[str, Dict[str, float]] = {}
    for name, builder, target in (
        ("chain7_ftp", _build_chain7, chain_target),
        ("random50_stress", _build_random50, stress_target),
        ("mobile_chain7", _build_mobile_chain7, chain_target),
        ("mobile_random50", _build_mobile_random50, stress_target),
    ):
        per_backend = {
            backend: best_of(lambda b=backend: _run_and_measure(
                builder(target, backend=b)))
            for backend in kernel_backend_names()
        }
        with legacy_kernel():
            legacy = best_of(lambda: _run_and_measure(builder(target)))
        reference = per_backend["reference"]
        reference["speedup_vs_legacy"] = (
            reference["events_per_sec"] / legacy["events_per_sec"]
            if legacy["events_per_sec"] else float("nan")
        )
        results[name] = reference
        results[f"{name}_legacy"] = legacy
        for backend, result in per_backend.items():
            if backend == "reference":
                continue
            result["speedup_vs_reference"] = (
                result["events_per_sec"] / reference["events_per_sec"]
                if reference["events_per_sec"] else float("nan")
            )
            results[f"{name}_{backend}"] = result

    # Metrics-plane overhead: same chain workload with time series enabled,
    # compared by wall time against the metrics-off run above (events/sec is
    # not comparable — the sampler adds events of its own).  Both sides are
    # best-of-N wall times, so the ratio is jitter-resistant.
    metrics_run = best_of(lambda: _run_and_measure(
        _build_chain7_metrics(chain_target)))
    plain_wall = results["chain7_ftp"]["wall_time"]
    metrics_run["overhead_vs_disabled"] = (
        metrics_run["wall_time"] / plain_wall if plain_wall else float("nan")
    )
    results["chain7_metrics"] = metrics_run
    return results
