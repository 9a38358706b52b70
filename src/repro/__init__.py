"""repro — reproduction of *Improving TCP Performance for Multihop Wireless Networks*.

A pure-Python discrete-event simulator of static and mobile multihop IEEE
802.11 networks (DCF MAC with RTS/CTS, AODV routing, DropTail interface
queues, pluggable node mobility) together with packet-level TCP NewReno, TCP
Vegas, dynamic ACK thinning and an optimally paced UDP source, plus the
experiment harness that regenerates every table and figure of the DSN 2005
paper by ElRakabawy, Lindemann and Vernon — and extends its static scenarios
with mobile ones (``ScenarioConfig(mobility="random-waypoint")``).

Typical use (single scenario)::

    from repro import Scenario, ScenarioConfig, ScenarioSpec, chain_topology

    spec = ScenarioSpec(
        topology=chain_topology(hops=7),
        config=ScenarioConfig(variant="vegas", bandwidth_mbps=2.0,
                              packet_target=500),
    )
    result = Scenario(spec).run()
    print(result.aggregate_goodput_kbps, "kbit/s")

Declarative sweep with seed replication, parallel execution and crash-safe
checkpointing (an interrupted study resumes from its ``store``, re-executing
only the missing items)::

    from repro import ScenarioConfig, SweepSpec, run_study

    spec = SweepSpec(topology="chain",
                     axes={"variant": ["vegas", "newreno"], "hops": [2, 4, 8]},
                     base=ScenarioConfig(packet_target=250), replications=3)
    study = run_study(spec, store=".study-store")
    for point in study.points:
        print(point.values, point.goodput_interval)
"""

from repro.experiments.config import (
    DEFAULT_HOP_COUNTS,
    PAPER_BANDWIDTHS,
    PAPER_HOP_COUNTS,
    ScenarioConfig,
)
from repro.experiments.results import FlowResult, ScenarioResult, format_table
from repro.experiments.workload import FlowSpec, ScenarioEvent, ScenarioSpec
from repro.metrics import MetricsRegistry, TimeSeries
from repro.mobility.registry import MOBILITY_MODELS, MobilityProfile
from repro.topology.chain import chain_topology
from repro.topology.grid import grid_topology
from repro.topology.random_topology import random_topology
from repro.topology.registry import TOPOLOGIES, TopologyProfile
from repro.transport.registry import TRANSPORTS, TransportProfile

__version__ = "1.0.0"


def __getattr__(name: str):
    # Reached only for names not bound above: of those in __all__, that is
    # the runner, the preset catalog and the study plane, which
    # repro.experiments loads on first use, so that a process which only runs
    # scenarios never imports the study plane.
    if name in __all__:
        from repro import experiments
        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ScenarioConfig",
    "PAPER_BANDWIDTHS",
    "PAPER_HOP_COUNTS",
    "DEFAULT_HOP_COUNTS",
    "FlowResult",
    "ScenarioResult",
    "format_table",
    "Scenario",
    "FlowSpec",
    "ScenarioEvent",
    "ScenarioSpec",
    "available_scenarios",
    "build_named_scenario",
    "PointResult",
    "StudyResult",
    "SweepSpec",
    "run_study",
    "ResultStore",
    "chain_topology",
    "grid_topology",
    "random_topology",
    "TOPOLOGIES",
    "TopologyProfile",
    "TRANSPORTS",
    "TransportProfile",
    "MOBILITY_MODELS",
    "MobilityProfile",
    "MetricsRegistry",
    "TimeSeries",
    "__version__",
]
