"""Tests for the scenario presets: the table's names, what the presets build,
and the error paths of :func:`build_named_scenario`.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.scenarios import (
    SCENARIOS,
    available_scenarios,
    build_named_scenario,
)
from repro.experiments.workload import ScenarioSpec
from repro.mobility.models import RandomWalkMobility
from repro.mobility.registry import MOBILITY_MODELS, MobilityProfile
from repro.topology.chain import chain_topology
from repro.topology.registry import TOPOLOGIES, TopologyProfile
from repro.transport.registry import TRANSPORTS
from repro.transport.vegas import VegasSender

#: The presets small enough to build here; the city10k ones come from the
#: same ``city_scenario_spec`` as city1k.
BUILDABLE_PRESETS = [name for name in available_scenarios()
                     if not name.startswith("city10k")]


class TestPresets:
    def test_the_table_holds_the_presets_something_runs(self):
        assert available_scenarios() == sorted([
            "chain7-vegas-2mbps", "chain7-vegas-at-2mbps",
            "chain7-rwp-vegas-2mbps", "grid-newreno-2mbps",
            "random-rwalk-vegas-2mbps",
            "chain7-mixed-newreno-vegas", "backbone2x7-newreno",
            "backbone2x7-vegas", "backbone2x7-mixed-newreno-vegas",
            "random50-tcp-with-udp-background", "city1k-rwp",
            "city1k-manhattan", "city10k-rwp", "city10k-manhattan",
            "city10k-rwp-1000flows",
        ])

    @pytest.mark.parametrize("name", BUILDABLE_PRESETS)
    def test_every_preset_factory_returns_a_spec_that_builds(self, name):
        spec = SCENARIOS[name]()
        assert isinstance(spec, ScenarioSpec)
        scenario = build_named_scenario(name)
        assert scenario.spec == spec
        assert len(scenario.senders) == len(scenario.workload) > 0

    def test_random_preset_is_the_papers_field(self):
        spec = build_named_scenario("random-rwalk-vegas-2mbps").spec
        assert len(spec.topology.node_ids) == 120
        assert len(spec.topology.flows) == 10
        assert spec.config.mobility == "random-walk"

    def test_mobile_preset_builds_scenario_with_manager(self):
        scenario = build_named_scenario("chain7-rwp-vegas-2mbps")
        assert scenario.mobility is not None
        assert scenario.config.mobility == "random-waypoint"

    def test_static_preset_builds_scenario_without_manager(self):
        scenario = build_named_scenario("chain7-vegas-2mbps")
        assert scenario.mobility is None

    def test_optwin_point_runs_the_default_clamp(self):
        scenario = Scenario(ScenarioSpec(
            topology=chain_topology(hops=7),
            config=ScenarioConfig(variant="newreno-optwin")))
        assert scenario.config.newreno_max_cwnd == 3.0


class TestRegistriesReachScenarios:
    """A registered transport, topology family or mobility model is runnable
    as a direct spec, with no change to the preset table."""

    @pytest.mark.parametrize("variant", TRANSPORTS.names())
    def test_every_transport_runs_on_every_paper_topology(self, variant):
        for family, params in (("chain", {"hops": 7}), ("grid", {}),
                               ("random", {})):
            scenario = Scenario(ScenarioSpec(
                topology=TOPOLOGIES.get(family).build(**params),
                config=ScenarioConfig(variant=variant)))
            assert [profile.name for profile in scenario.profiles] == (
                [variant] * len(scenario.workload)), family

    def test_new_topology_family_builds_a_scenario(self):
        TOPOLOGIES.register(TopologyProfile(name="probe-topo",
                                            builder=chain_topology))
        try:
            scenario = Scenario(ScenarioSpec(
                topology=TOPOLOGIES.get("probe-topo").build(hops=3),
                config=ScenarioConfig()))
            assert len(scenario.spec.topology.node_ids) == 4
        finally:
            TOPOLOGIES.unregister("probe-topo")
        assert "probe-topo" not in TOPOLOGIES

    def test_new_mobility_model_moves_a_scenario(self):
        MOBILITY_MODELS.register(MobilityProfile(
            name="probe-walk",
            builder=lambda speed, pause: RandomWalkMobility(speed, pause)))
        try:
            scenario = build_named_scenario("chain7-vegas-2mbps",
                                            mobility="probe-walk")
            assert scenario.mobility is not None
            assert isinstance(scenario.mobility.model, RandomWalkMobility)
        finally:
            MOBILITY_MODELS.unregister("probe-walk")
        assert "probe-walk" not in MOBILITY_MODELS


class TestBuildNamedScenarioErrors:
    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            build_named_scenario("chain7-vegas-9000mbps")

    def test_unknown_config_override_rejected(self):
        with pytest.raises(TypeError):
            build_named_scenario("chain7-vegas-2mbps", warp_factor=9)

    def test_invalid_config_override_rejected(self):
        with pytest.raises(ConfigurationError):
            build_named_scenario("chain7-vegas-2mbps", packet_target=0)

    def test_override_reaches_config(self):
        scenario = build_named_scenario("chain7-vegas-2mbps", packet_target=77,
                                        seed=9)
        assert scenario.config.packet_target == 77
        assert scenario.config.seed == 9


class TestVariantOverride:
    """``variant=`` switches every flow of a uniform preset, not just the
    config.  The city10k presets come from the same ``city_scenario_spec``
    as city1k and are too large to build here."""

    @pytest.mark.parametrize("name", ["city1k-rwp", "city1k-manhattan",
                                      "backbone2x7-newreno",
                                      "grid-newreno-2mbps",
                                      "chain7-vegas-at-2mbps"])
    def test_every_flow_runs_the_overridden_variant(self, name):
        scenario = build_named_scenario(name, variant="vegas")
        assert [profile.name for profile in scenario.profiles] == (
            ["vegas"] * len(scenario.workload))
        assert all(isinstance(sender, VegasSender)
                   for sender in scenario.senders)

    def test_mixed_presets_keep_their_per_flow_variants(self):
        scenario = build_named_scenario("backbone2x7-mixed-newreno-vegas",
                                        variant="vegas")
        assert [profile.name for profile in scenario.profiles] == [
            "newreno", "vegas"]
