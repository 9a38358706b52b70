"""Named scenario presets: the scenarios the examples, docs and benchmarks run.

:data:`SCENARIOS` maps each preset name to a factory returning a complete
:class:`~repro.experiments.workload.ScenarioSpec`, so examples, notebooks and
ad-hoc exploration can run a standard setup by name::

    from repro.experiments.scenarios import build_named_scenario

    result = build_named_scenario("chain7-vegas-2mbps", packet_target=300).run()

Any other point is a one-point study
(``python -m repro study --topology grid --variants paced-udp --bandwidth 11
--replications 1``) or ``Scenario(ScenarioSpec(topology=..., config=...)).run()``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.errors import ConfigurationError
from repro.core.registry import did_you_mean
from repro.core.tracing import NULL_TRACER, Tracer
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.workload import FlowSpec, ScenarioEvent, ScenarioSpec
from repro.topology.backbone import backbone_tail, backbone_topology
from repro.topology.chain import chain_topology
from repro.topology.grid import grid_topology
from repro.topology.random_topology import city_topology, random_topology

#: Scenario factory type: returns a complete
#: :class:`~repro.experiments.workload.ScenarioSpec`.
ScenarioFactory = Callable[[], ScenarioSpec]


def _chain7_mixed_newreno_vegas() -> ScenarioSpec:
    """7-hop chain: a NewReno flow competing with a Vegas flow that enters
    the run mid-flight through a timeline ``flow-start`` event."""
    topology = chain_topology(hops=7)
    return ScenarioSpec(
        name="chain7-mixed",
        topology=topology,
        workload=(
            FlowSpec(source=0, destination=7, variant="newreno"),
            FlowSpec(source=0, destination=7, variant="vegas", label="latecomer"),
        ),
        config=ScenarioConfig(variant="newreno", bandwidth_mbps=2.0),
        timeline=(ScenarioEvent.flow_start(5.0, flow=2),),
    )


def _random50_tcp_with_udp_background() -> ScenarioSpec:
    """50-node random topology: four NewReno foreground flows over a paced-UDP
    background flow that starts first (classic coexistence stress)."""
    topology = random_topology(node_count=50, area=(1300.0, 800.0),
                               flow_count=5, seed=11)
    endpoints = topology.flows
    flows = [FlowSpec(source=s, destination=d, variant="newreno")
             for s, d in endpoints[:-1]]
    flows.append(FlowSpec(source=endpoints[-1][0], destination=endpoints[-1][1],
                          variant="paced-udp", start_time=0.0,
                          label="udp-background"))
    return ScenarioSpec(
        name="random50-tcp-with-udp-background",
        topology=topology,
        workload=tuple(flows),
        config=ScenarioConfig(variant="newreno", bandwidth_mbps=2.0,
                              max_sim_time=300.0),
    )


def city_scenario_spec(
    mobility: str = "random-waypoint",
    node_count: int = 1000,
    seed: int = 1,
    flow_count: Optional[int] = None,
) -> ScenarioSpec:
    """A city-scale mobile mesh spec: random metro field, NewReno flows.

    The placement comes from
    :func:`repro.topology.random_topology.city_topology` (paper node density,
    area scaled with ``sqrt(node_count/1000)``) and the topology's flows run
    the config's variant, so a ``variant=`` override switches them all; only
    the channel's grid spatial index and lazy cache invalidation make
    populations of this size tractable.
    ``mobility`` selects any mobile model of ``MOBILITY_MODELS`` — the presets
    use ``random-waypoint`` and ``manhattan``.  Above 1000 nodes the spec
    turns on expanding-ring AODV search so route discoveries stop flooding
    the full 10k-node diameter; at 1000 and below everything stays
    byte-identical to the original ``city1k`` presets.

    Args:
        mobility: Mobility model name (a key of ``MOBILITY_MODELS``).
        node_count: Mesh size (1000 for the ``city1k`` presets, 10000 for
            ``city10k``).
        seed: Placement/flow seed.
        flow_count: Concurrent flows; ``None`` keeps the city default (10).
    """
    topology_kwargs = {} if flow_count is None else {"flow_count": flow_count}
    topology = city_topology(node_count=node_count, seed=seed,
                             **topology_kwargs)
    return ScenarioSpec(
        name=f"city{node_count}-{mobility}",
        topology=topology,
        config=ScenarioConfig(
            variant="newreno",
            bandwidth_mbps=2.0,
            mobility=mobility,
            # One update per simulated second: at pedestrian/vehicular speeds
            # nodes move a few metres between updates, far below the 250 m
            # transmission range, and the grid re-buckets only cell crossers.
            mobility_update_interval=1.0,
            max_sim_time=300.0,
            aodv_expanding_ring=node_count > 1000,
        ),
    )


def backbone_scenario_spec(variant: str = "newreno", cells: int = 2,
                           cell_hops: int = 7) -> ScenarioSpec:
    """A heterogeneous backbone spec: wired gateway spine, wireless cells.

    The topology (:func:`repro.topology.backbone.backbone_topology`) carries
    its link plan, from which the runner builds gateways and the spine bus.
    Routing is static: plain AODV at a
    cell member cannot discover a destination behind the wired spine (route
    requests do not cross subnets), so
    :class:`~repro.experiments.workload.ScenarioSpec` refuses these flows
    under AODV.

    Args:
        variant: Transport variant every flow runs (the config's variant,
            which a ``variant=`` override replaces).
        cells: Gateways (= wireless cells) on the spine.
        cell_hops: Wireless hops from each gateway to its cell's tail.
    """
    topology = backbone_topology(cells=cells, cell_hops=cell_hops)
    return ScenarioSpec(
        name=f"backbone{cells}x{cell_hops}-{variant}",
        topology=topology,
        config=ScenarioConfig(variant=variant, bandwidth_mbps=2.0,
                              routing="static", max_sim_time=600.0),
    )


def _backbone2x7_mixed_newreno_vegas() -> ScenarioSpec:
    """Backbone with one NewReno and one Vegas flow crossing the spine in
    opposite directions — the variant-mix counterpart of ``chain7-mixed``."""
    topology = backbone_topology(cells=2, cell_hops=7)
    tail0 = backbone_tail(2, 7, 0)
    tail1 = backbone_tail(2, 7, 1)
    return ScenarioSpec(
        name="backbone2x7-mixed",
        topology=topology,
        workload=(
            FlowSpec(source=tail0, destination=tail1, variant="newreno"),
            FlowSpec(source=tail1, destination=tail0, variant="vegas"),
        ),
        config=ScenarioConfig(variant="newreno", bandwidth_mbps=2.0,
                              routing="static", max_sim_time=600.0),
    )


#: Every preset, by name.  The first five are single-variant points of the
#: paper's topologies (the ledger, the goldens, the examples and the command
#: line's default run them); the rest are hand-written mixed-transport,
#: backbone and city-scale workloads.
SCENARIOS: Dict[str, ScenarioFactory] = {
    "chain7-vegas-2mbps": lambda: ScenarioSpec(
        topology=chain_topology(hops=7),
        config=ScenarioConfig(variant="vegas", bandwidth_mbps=2.0)),
    "chain7-vegas-at-2mbps": lambda: ScenarioSpec(
        topology=chain_topology(hops=7),
        config=ScenarioConfig(variant="vegas-at", bandwidth_mbps=2.0)),
    "chain7-rwp-vegas-2mbps": lambda: ScenarioSpec(
        topology=chain_topology(hops=7),
        config=ScenarioConfig(variant="vegas", bandwidth_mbps=2.0,
                              mobility="random-waypoint")),
    "grid-newreno-2mbps": lambda: ScenarioSpec(
        topology=grid_topology(),
        config=ScenarioConfig(variant="newreno", bandwidth_mbps=2.0)),
    # The paper's Sec. 4.4.2 field: 120 nodes on 2500 m x 1000 m, 10 flows.
    "random-rwalk-vegas-2mbps": lambda: ScenarioSpec(
        topology=random_topology(node_count=120, area=(2500.0, 1000.0),
                                 flow_count=10, seed=7),
        config=ScenarioConfig(variant="vegas", bandwidth_mbps=2.0,
                              mobility="random-walk")),
    "chain7-mixed-newreno-vegas": _chain7_mixed_newreno_vegas,
    "backbone2x7-newreno": lambda: backbone_scenario_spec("newreno"),
    "backbone2x7-vegas": lambda: backbone_scenario_spec("vegas"),
    "backbone2x7-mixed-newreno-vegas": _backbone2x7_mixed_newreno_vegas,
    "random50-tcp-with-udp-background": _random50_tcp_with_udp_background,
    "city1k-rwp": lambda: city_scenario_spec("random-waypoint"),
    "city1k-manhattan": lambda: city_scenario_spec("manhattan"),
    "city10k-rwp": lambda: city_scenario_spec("random-waypoint",
                                              node_count=10_000),
    "city10k-manhattan": lambda: city_scenario_spec("manhattan",
                                                    node_count=10_000),
    "city10k-rwp-1000flows": lambda: city_scenario_spec(
        "random-waypoint", node_count=10_000, flow_count=1000),
}


def available_scenarios() -> List[str]:
    """Sorted list of every preset name."""
    return sorted(SCENARIOS)


def build_named_scenario(
    name: str,
    tracer: Tracer = NULL_TRACER,
    **config_overrides,
) -> Scenario:
    """Build a ready-to-run :class:`Scenario` by preset name.

    Args:
        name: One of :func:`available_scenarios`.
        tracer: Optional tracer shared by every component of the scenario.
        **config_overrides: Fields of :class:`ScenarioConfig` to override
            (e.g. ``packet_target=500``, ``seed=7``).

    Raises:
        ConfigurationError: If the name is unknown (the message suggests
            close matches).
    """
    factory = SCENARIOS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}{did_you_mean(name, SCENARIOS)} "
            f"(run `python -m repro list` for all {len(SCENARIOS)} presets)"
        )
    spec = factory()
    if config_overrides:
        spec = spec.with_config(**config_overrides)
    return Scenario(spec, tracer=tracer)
