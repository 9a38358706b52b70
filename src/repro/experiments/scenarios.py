"""Named scenario presets, generated from the transport/topology registries.

A registry of ready-made :class:`~repro.experiments.workload.ScenarioSpec` s
for the scenarios the paper evaluates, so examples, notebooks and ad-hoc
exploration can run a standard setup by name::

    from repro.experiments.scenarios import build_named_scenario

    result = build_named_scenario("chain7-vegas-2mbps", packet_target=300).run()

The preset table is derived from the transport, topology and mobility
registries: every registered transport variant automatically gets a
``chain7-<variant>-<bw>``, ``grid-<variant>-<bw>`` and ``random-<variant>-<bw>``
entry per paper bandwidth, on the config defaults; every mobility profile with
a ``preset_tag`` additionally gets a mobile twin of each of those entries
(``chain7-rwp-<variant>-<bw>``, …).  Registering a new transport or mobility
model therefore also registers its presets — no change here required.
Additional hand-written presets can be added with :func:`register_scenario`.

:func:`catalog_markdown` renders every registered profile and preset as
markdown; the command line writes it and checks the committed copy (CI fails
when it is stale)::

    PYTHONPATH=src python -m repro catalog -o docs/scenario-catalog.md
    PYTHONPATH=src python -m repro catalog --check docs/scenario-catalog.md
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.errors import ConfigurationError
from repro.core.registry import did_you_mean
from repro.core.tracing import NULL_TRACER, Tracer
from repro.experiments.config import PAPER_BANDWIDTHS, ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.workload import FlowSpec, ScenarioEvent, ScenarioSpec
from repro.mobility.registry import MOBILITY_MODELS
from repro.topology.registry import TOPOLOGIES
from repro.transport.registry import TRANSPORTS

#: Scenario factory type: returns a complete
#: :class:`~repro.experiments.workload.ScenarioSpec`.
ScenarioFactory = Callable[[], ScenarioSpec]

#: Hand-registered presets layered on top of the generated table.
_EXTRA_SCENARIOS: Dict[str, ScenarioFactory] = {}


def _bandwidth_tag(bandwidth: float) -> str:
    return f"{bandwidth:g}mbps"


def _preset_factory(family: str, params: Dict[str, object], variant_name: str,
                    bandwidth: float, mobility: str = "static") -> ScenarioFactory:
    def factory() -> ScenarioSpec:
        return ScenarioSpec(
            topology=TOPOLOGIES.get(family).build(**params),
            config=ScenarioConfig(variant=variant_name, bandwidth_mbps=bandwidth,
                                  mobility=mobility),
        )
    return factory


def _generated_presets() -> Dict[str, ScenarioFactory]:
    """The preset table for the currently registered profiles.

    Built afresh on every call (about a millisecond for the built-ins), so
    it always reflects the registries; use :func:`register_scenario` to add
    presets.
    """
    mobile_variants = [(m.preset_tag, m.name) for m in MOBILITY_MODELS.values()
                       if m.preset_tag is not None]
    presets: Dict[str, ScenarioFactory] = {}
    for profile in TRANSPORTS.values():
        for topology in TOPOLOGIES.values():
            if topology.preset_prefix is None:
                continue
            for bandwidth in PAPER_BANDWIDTHS:
                name = (f"{topology.preset_prefix}-{profile.name}"
                        f"-{_bandwidth_tag(bandwidth)}")
                presets[name] = _preset_factory(
                    topology.name, dict(topology.preset_params),
                    profile.name, bandwidth,
                )
                for tag, mobility_name in mobile_variants:
                    presets[
                        f"{topology.preset_prefix}-{tag}-{profile.name}"
                        f"-{_bandwidth_tag(bandwidth)}"
                    ] = _preset_factory(
                        topology.name, dict(topology.preset_params),
                        profile.name, bandwidth, mobility_name,
                    )
    presets.update(_EXTRA_SCENARIOS)
    return presets


def register_scenario(name: str, factory: ScenarioFactory,
                      replace_existing: bool = False) -> None:
    """Register a custom named preset on top of the generated table.

    Raises:
        ConfigurationError: If the name collides without ``replace_existing``.
    """
    if not replace_existing and name in _generated_presets():
        raise ConfigurationError(f"scenario {name!r} is already registered")
    _EXTRA_SCENARIOS[name] = factory


# ======================================================================
# Hand-written mixed-transport presets (Workload API v2): demonstrate
# heterogeneous per-flow variants and a scripted timeline.  These register
# through the same extras layer user code uses.
# ======================================================================
def _chain7_mixed_newreno_vegas() -> ScenarioSpec:
    """7-hop chain: a NewReno flow competing with a Vegas flow that enters
    the run mid-flight through a timeline ``flow-start`` event."""
    topology = TOPOLOGIES.get("chain").build(hops=7)
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
    from repro.topology.random_topology import random_topology

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
    ``mobility`` selects any registered mobile profile — the shipped presets
    use ``random-waypoint`` and ``manhattan``.  Above 1000 nodes the spec
    turns on expanding-ring AODV search so route discoveries stop flooding
    the full 10k-node diameter; at 1000 and below everything stays
    byte-identical to the original ``city1k`` presets.

    Args:
        mobility: Registered mobility-profile name.
        node_count: Mesh size (1000 for the ``city1k`` presets, 10000 for
            ``city10k``).
        seed: Placement/flow seed.
        flow_count: Concurrent flows; ``None`` keeps the city default (10).
    """
    from repro.topology.random_topology import city_topology

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
    from repro.topology.backbone import backbone_topology

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
    from repro.topology.backbone import backbone_tail, backbone_topology

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


register_scenario("chain7-mixed-newreno-vegas", _chain7_mixed_newreno_vegas)
register_scenario("backbone2x7-newreno",
                  lambda: backbone_scenario_spec("newreno"))
register_scenario("backbone2x7-vegas",
                  lambda: backbone_scenario_spec("vegas"))
register_scenario("backbone2x7-mixed-newreno-vegas",
                  _backbone2x7_mixed_newreno_vegas)
register_scenario("random50-tcp-with-udp-background",
                  _random50_tcp_with_udp_background)
register_scenario("city1k-rwp", lambda: city_scenario_spec("random-waypoint"))
register_scenario("city1k-manhattan", lambda: city_scenario_spec("manhattan"))
register_scenario(
    "city10k-rwp",
    lambda: city_scenario_spec("random-waypoint", node_count=10_000))
register_scenario(
    "city10k-manhattan",
    lambda: city_scenario_spec("manhattan", node_count=10_000))
register_scenario(
    "city10k-rwp-1000flows",
    lambda: city_scenario_spec("random-waypoint", node_count=10_000,
                               flow_count=1000))


def available_scenarios() -> List[str]:
    """Sorted list of all registered scenario names."""
    return sorted(_generated_presets())


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
            close matches), or its factory returns anything but a
            :class:`ScenarioSpec`.
    """
    presets = _generated_presets()
    factory = presets.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}{did_you_mean(name, presets)} "
            f"(run `python -m repro list` for all {len(presets)} presets)"
        )
    spec = factory()
    if not isinstance(spec, ScenarioSpec):
        raise ConfigurationError(
            f"scenario {name!r}: its factory returned {type(spec).__name__}, "
            "not a ScenarioSpec; return ScenarioSpec(topology=..., config=...)"
        )
    if config_overrides:
        spec = spec.with_config(**config_overrides)
    return Scenario(spec, tracer=tracer)


# ======================================================================
# Scenario catalog: markdown rendering
# ======================================================================
def _markdown_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def _format_params(params: Dict[str, object]) -> str:
    if not params:
        return "—"
    return ", ".join(f"`{key}={value!r}`" for key, value in sorted(params.items()))


def catalog_markdown() -> str:
    """Render every registered profile and preset as a markdown catalog.

    The output is deterministic (sorted, no timestamps) so the committed
    ``docs/scenario-catalog.md`` can be diffed against a fresh render; CI
    fails when they differ.
    """
    lines: List[str] = [
        "# Scenario catalog",
        "",
        "All registered transport variants, topology families, mobility models",
        "and the scenario presets generated from them.",
        "",
        "> **Generated file — do not edit.**  Regenerate with",
        "> `PYTHONPATH=src python -m repro catalog -o docs/scenario-catalog.md`",
        "> after registering new profiles; CI fails when this file is stale.",
        "",
        "## Transport variants",
        "",
    ]
    lines.extend(_markdown_table(
        ["name", "label"],
        [[f"`{p.name}`", p.label] for p in TRANSPORTS.values()],
    ))
    lines += ["", "## Topology families", ""]
    lines.extend(_markdown_table(
        ["name", "description", "preset prefix", "preset params"],
        [[f"`{p.name}`", p.description or "—",
          f"`{p.preset_prefix}`" if p.preset_prefix else "—",
          _format_params(dict(p.preset_params))]
         for p in TOPOLOGIES.values()],
    ))
    lines += ["", "## Mobility models", ""]
    lines.extend(_markdown_table(
        ["name", "description", "preset tag", "default speed (m/s)",
         "default pause (s)"],
        [[f"`{p.name}`", p.description or "—",
          f"`{p.preset_tag}`" if p.preset_tag else "—",
          f"{p.default_speed:g}", f"{p.default_pause:g}"]
         for p in MOBILITY_MODELS.values()],
    ))
    presets = _generated_presets()
    lines += [
        "",
        f"## Scenario presets ({len(presets)} total)",
        "",
        "Naming scheme: `<topology-prefix>[-<mobility-tag>]-<transport>-<bandwidth>`;",
        "build one with `build_named_scenario(name)`.",
        "",
    ]
    extras = sorted(_EXTRA_SCENARIOS)
    generated = sorted(name for name in presets if name not in _EXTRA_SCENARIOS)
    groups: Dict[str, List[str]] = {}
    for topology in TOPOLOGIES.values():
        if topology.preset_prefix is None:
            continue
        groups[f"{topology.preset_prefix} (static)"] = []
        for mobility in MOBILITY_MODELS.values():
            if mobility.preset_tag is not None:
                groups[f"{topology.preset_prefix}-{mobility.preset_tag} "
                       f"({mobility.name})"] = []
    for name in generated:
        prefix, tag = name.split("-")[0], name.split("-")[1]
        key = next(
            (group for group in groups
             if group.startswith(f"{prefix}-{tag} ")), f"{prefix} (static)",
        )
        groups.setdefault(key, []).append(name)
    for group in sorted(groups):
        names = groups[group]
        lines += [f"### {group} — {len(names)} presets", ""]
        lines.append(", ".join(f"`{name}`" for name in names) or "—")
        lines.append("")
    if extras:
        lines += [f"### hand-registered — {len(extras)} presets", ""]
        lines.append(", ".join(f"`{name}`" for name in extras))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
