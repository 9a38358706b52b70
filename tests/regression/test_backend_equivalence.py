"""Cross-backend differential regression tests.

Every kernel backend registered in :mod:`repro.core.backends` must be a
*behavioural clone* of the ``reference`` engine: same dispatch order, same
``(time, sequence)`` tie-breaking, same tombstone semantics — so a scenario
run on any backend produces the byte-identical event trace.  This suite pins
that guarantee two ways:

1. **Golden scenarios** — the exact scenario set of
   ``test_golden_traces.py`` runs on every registered backend and each
   backend's ``trace_digest`` and metrics snapshot must match the pinned
   ``golden_traces.json`` fixtures (captured on the reference engine).
2. **Sampled preset matrix** — a deterministic sample of the preset catalog
   (covering NewReno/Vegas/ACK-thinning/paced-UDP, mixed-transport
   workloads, Manhattan/random-waypoint mobility and the random topology)
   runs on every non-reference backend and is compared against a fresh
   reference run of the same preset.

A divergence on any backend means the accelerated engine changed simulation
*behaviour*, not just performance — that is always a bug, never something to
regenerate fixtures around.
"""

from __future__ import annotations

import pytest

from repro.core.backends import kernel_backend_names
from repro.core.tracing import Tracer, trace_digest
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.scenarios import build_named_scenario
from repro.experiments.study import StudyRunner, SweepSpec
from repro.net.packet import reset_packet_ids
from repro.topology.random_topology import random_topology

from tests.regression.test_golden_traces import _load_fixtures, _metrics

#: Backends under differential test; includes any backend registered by
#: plugins/tests at collection time, so third-party engines are pinned too.
BACKENDS = kernel_backend_names()

#: Deterministic preset-catalog sample: one representative per transport
#: family plus mobility and mixed-workload coverage.  Small packet targets
#: keep the whole matrix a few seconds per backend.
PRESET_SAMPLE = [
    "chain7-vegas-2mbps",
    "chain7-newreno-at-optwin-2mbps",
    "chain7-paced-udp-2mbps",
    "chain7-mixed-newreno-vegas",
    "chain7-mht-vegas-at-2mbps",
    "grid-newreno-5.5mbps",
    "backbone2x7-mixed-newreno-vegas",
]


def _golden_builders():
    """The golden scenario set, parameterised by kernel backend."""

    def chain(tracer, backend):
        return build_named_scenario("chain7-vegas-2mbps", tracer=tracer,
                                    packet_target=200, seed=3,
                                    kernel_backend=backend)

    def grid(tracer, backend):
        return build_named_scenario("grid-newreno-2mbps", tracer=tracer,
                                    packet_target=150, seed=5,
                                    kernel_backend=backend)

    def random50(tracer, backend):
        topology = random_topology(node_count=50, area=(1300.0, 800.0),
                                   flow_count=5, seed=11)
        config = ScenarioConfig(variant="vegas", packet_target=150, seed=11,
                                max_sim_time=120.0, kernel_backend=backend)
        return Scenario(topology, config, tracer=tracer)

    def mobile_chain(tracer, backend):
        return build_named_scenario("chain7-rwp-vegas-2mbps", tracer=tracer,
                                    packet_target=60, seed=3,
                                    max_sim_time=60.0, mobility_speed=20.0,
                                    mobility_pause=1.0,
                                    kernel_backend=backend)

    def backbone(tracer, backend):
        return build_named_scenario("backbone2x7-newreno", tracer=tracer,
                                    packet_target=80, seed=9,
                                    max_sim_time=120.0,
                                    kernel_backend=backend)

    return {
        "chain7-vegas-2mbps": chain,
        "grid-newreno-2mbps": grid,
        "random50-vegas-2mbps": random50,
        "mobile-chain7-rwp-vegas-2mbps": mobile_chain,
        "backbone2x7-newreno": backbone,
    }


GOLDEN_BUILDERS = _golden_builders()

#: ``events_processed`` of each golden run when every per-receiver signal
#: edge was an event of its own (PR 11, both kernels).  Since PR 12 most edges
#: run in place, and ``events_processed + edges_in_place`` must still be this
#: number to the digit: the handlers invoked did not change, only how many of
#: them took a trip through the queue.
GOLDEN_HANDLERS = {
    "backbone2x7-newreno": 103771,
    "chain7-vegas-2mbps": 122816,
    "grid-newreno-2mbps": 172902,
    "mobile-chain7-rwp-vegas-2mbps": 35483,
    "random50-vegas-2mbps": 466338,
}


def _run_golden_on(name: str, backend: str) -> dict:
    reset_packet_ids()
    tracer = Tracer(enabled=True)
    result = GOLDEN_BUILDERS[name](tracer, backend).run()
    return {"trace_sha256": trace_digest(tracer), "metrics": _metrics(result),
            "events": result.metrics["core.events_processed"],
            "edges": result.metrics["core.edges_in_place"]}


def _run_preset_on(name: str, backend: str) -> dict:
    reset_packet_ids()
    tracer = Tracer(enabled=True)
    scenario = build_named_scenario(name, tracer=tracer, packet_target=40,
                                    seed=7, max_sim_time=40.0,
                                    kernel_backend=backend)
    result = scenario.run()
    return {"trace_sha256": trace_digest(tracer), "metrics": _metrics(result)}


def test_all_backends_registered():
    """The two built-in backends are present (a plugin cannot shadow them)."""
    assert "reference" in BACKENDS
    assert "wheel" in BACKENDS


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDERS))
def test_golden_trace_identical_on_backend(name, backend):
    """Every golden scenario is byte-identical to the pinned fixture on
    every registered backend."""
    fixtures = _load_fixtures()
    assert name in fixtures, f"no fixture pinned for {name}"
    actual = _run_golden_on(name, backend)
    expected = fixtures[name]
    assert actual["metrics"] == expected["metrics"], (
        f"{name} on backend {backend!r}: result metrics diverged from the "
        "pinned golden run"
    )
    assert actual["trace_sha256"] == expected["trace_sha256"], (
        f"{name} on backend {backend!r}: event trace diverged from the "
        "pinned golden run (backend changed simulation behaviour)"
    )
    assert actual["events"] + actual["edges"] == GOLDEN_HANDLERS[name]
    # At least half the handlers are signal edges that skipped the queue.
    assert actual["edges"] > actual["events"]


@pytest.mark.parametrize("backend",
                         [b for b in BACKENDS if b != "reference"])
@pytest.mark.parametrize("name", PRESET_SAMPLE)
def test_preset_matrix_matches_reference(name, backend):
    """Sampled presets produce byte-identical traces on every backend."""
    expected = _run_preset_on(name, "reference")
    actual = _run_preset_on(name, backend)
    assert actual["metrics"] == expected["metrics"], (
        f"{name}: backend {backend!r} metrics diverged from reference"
    )
    assert actual["trace_sha256"] == expected["trace_sha256"], (
        f"{name}: backend {backend!r} trace diverged from reference"
    )


def test_kernel_backend_is_a_study_axis():
    """``kernel_backend`` sweeps like any config axis and every point pair
    agrees across backends (same seed → same delivered packets)."""
    spec = SweepSpec(
        name="backend-axis",
        topology="chain",
        axes={"kernel_backend": list(BACKENDS), "hops": [2]},
        base=ScenarioConfig(packet_target=30, max_sim_time=60.0),
        replications=1,
    )
    study = StudyRunner().run(spec, parallel=False)
    by_backend = {}
    for point in study.points:
        backend = point.values["kernel_backend"]
        snapshot = (point.run.delivered_packets,
                    point.run.simulated_time,
                    point.run.mac_frames_sent)
        by_backend[backend] = snapshot
    assert set(by_backend) == set(BACKENDS)
    baseline = by_backend["reference"]
    for backend, snapshot in by_backend.items():
        assert snapshot == baseline, (
            f"study point on backend {backend!r} diverged from reference"
        )
