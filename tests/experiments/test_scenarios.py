"""Tests for generated scenario presets and the catalog renderer.

Covers the satellite concerns of the preset registry: the generation-counter
cache invalidation (newly registered transports/topologies/mobility models
show up without any scenario-module change), preset naming, and the error
paths of :func:`build_named_scenario`.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.core.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.scenarios import (
    available_scenarios,
    build_named_scenario,
    catalog_markdown,
    register_scenario,
)
from repro.experiments.workload import ScenarioSpec
from repro.mobility.registry import MOBILITY_MODELS, MobilityProfile
from repro.mobility.models import RandomWalkMobility
from repro.topology.chain import chain_topology
from repro.topology.registry import TOPOLOGIES, TopologyProfile
from repro.transport.registry import TRANSPORTS, TransportProfile
from repro.transport.vegas import VegasSender


def _dummy_transport(name: str) -> TransportProfile:
    base = TRANSPORTS.get("vegas")
    return TransportProfile(name=name, label=name.title(),
                            build_sender=base.build_sender,
                            build_sink=base.build_sink)


class TestGeneratedPresets:
    def test_every_builtin_combination_present(self):
        names = set(available_scenarios())
        assert "chain7-vegas-2mbps" in names
        assert "grid-newreno-at-5.5mbps" in names
        assert "random-paced-udp-11mbps" in names

    def test_mobile_twins_generated_for_tagged_mobility(self):
        names = set(available_scenarios())
        assert "chain7-rwp-vegas-2mbps" in names
        assert "random-rwalk-newreno-11mbps" in names
        # The static profile has no preset tag: no "-static-" presets exist.
        assert not any("-static-" in name for name in names)

    def test_new_transport_invalidates_generated_table(self):
        TRANSPORTS.register(_dummy_transport("probe-tp"))
        try:
            names = set(available_scenarios())
            assert "chain7-probe-tp-2mbps" in names
            assert "chain7-rwp-probe-tp-2mbps" in names
        finally:
            TRANSPORTS.unregister("probe-tp")
        assert "chain7-probe-tp-2mbps" not in available_scenarios()

    def test_new_topology_invalidates_generated_table(self):
        TOPOLOGIES.register(TopologyProfile(
            name="probe-topo", builder=chain_topology,
            preset_prefix="probe3", preset_params={"hops": 3},
        ))
        try:
            assert "probe3-vegas-2mbps" in available_scenarios()
        finally:
            TOPOLOGIES.unregister("probe-topo")
        assert "probe3-vegas-2mbps" not in available_scenarios()

    def test_new_mobility_model_invalidates_generated_table(self):
        MOBILITY_MODELS.register(MobilityProfile(
            name="probe-walk",
            builder=lambda speed, pause: RandomWalkMobility(speed, pause),
            preset_tag="pwalk",
        ))
        try:
            assert "chain7-pwalk-vegas-2mbps" in available_scenarios()
        finally:
            MOBILITY_MODELS.unregister("probe-walk")
        assert "chain7-pwalk-vegas-2mbps" not in available_scenarios()

    def test_mobile_preset_builds_scenario_with_manager(self):
        scenario = build_named_scenario("chain7-rwp-vegas-2mbps")
        assert scenario.mobility is not None
        assert scenario.config.mobility == "random-waypoint"

    def test_static_preset_builds_scenario_without_manager(self):
        scenario = build_named_scenario("chain7-vegas-2mbps")
        assert scenario.mobility is None

    def test_optwin_preset_runs_the_default_clamp(self):
        scenario = build_named_scenario("chain7-newreno-optwin-2mbps")
        assert scenario.config.newreno_max_cwnd == 3.0


class TestRegisterScenario:
    def test_custom_preset_and_collision(self):
        from repro.experiments import scenarios as scenarios_module

        def factory():
            return ScenarioSpec(topology=chain_topology(hops=2),
                                config=ScenarioConfig(packet_target=10))

        register_scenario("custom-pair", factory)
        try:
            assert "custom-pair" in available_scenarios()
            with pytest.raises(ConfigurationError):
                register_scenario("custom-pair", factory)
            register_scenario("custom-pair", factory, replace_existing=True)
            scenario = build_named_scenario("custom-pair", seed=4)
            assert scenario.config.packet_target == 10
            assert scenario.config.seed == 4
        finally:
            # No public unregister exists for hand-written presets; drop the
            # test entry so later tests see the pristine generated table.
            scenarios_module._EXTRA_SCENARIOS.pop("custom-pair", None)

    def test_factory_returning_a_topology_config_pair_is_rejected(self):
        from repro.experiments import scenarios as scenarios_module

        register_scenario("custom-legacy-pair", lambda: (
            chain_topology(hops=2), ScenarioConfig(packet_target=10)))
        try:
            with pytest.raises(ConfigurationError,
                               match="'custom-legacy-pair'.*not a ScenarioSpec"):
                build_named_scenario("custom-legacy-pair")
        finally:
            scenarios_module._EXTRA_SCENARIOS.pop("custom-legacy-pair", None)

    def test_cannot_shadow_generated_preset_without_replace(self):
        with pytest.raises(ConfigurationError):
            register_scenario("chain7-vegas-2mbps", lambda: None)


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
                                      "chain7-newreno-2mbps"])
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


class TestCatalog:
    def test_catalog_lists_profiles_and_presets(self):
        markdown = catalog_markdown()
        assert "## Transport variants" in markdown
        assert "## Topology families" in markdown
        assert "## Mobility models" in markdown
        assert "`chain7-vegas-2mbps`" in markdown
        assert "`chain7-rwp-vegas-2mbps`" in markdown

    def test_catalog_is_deterministic(self):
        assert catalog_markdown() == catalog_markdown()

    def test_catalog_command_writes_and_checks_the_file(self, tmp_path, capsys):
        path = tmp_path / "catalog.md"
        assert main(["catalog", "-o", str(path)]) == 0
        assert path.read_text() == catalog_markdown()
        assert main(["catalog", "--check", str(path)]) == 0
        assert "is up to date" in capsys.readouterr().out
        path.write_text("stale\n")
        assert main(["catalog", "--check", str(path)]) == 1
        assert f"python -m repro catalog -o {path}" in capsys.readouterr().out
