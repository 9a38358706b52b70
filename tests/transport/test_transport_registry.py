"""Tests for the pluggable transport-variant registry."""

from __future__ import annotations

import inspect

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.workload import ScenarioSpec
from repro.topology.chain import chain_topology
from repro.transport.newreno import NewRenoSender
from repro.transport.registry import TRANSPORTS, TransportProfile, transport_key
from repro.transport.sink import AckThinningSink, TcpSink
from repro.transport.vegas import VegasSender


class TestLookup:
    def test_builtin_variants_registered(self):
        names = TRANSPORTS.names()
        for expected in ("newreno", "vegas", "newreno-at", "vegas-at",
                         "newreno-optwin", "paced-udp"):
            assert expected in names

    def test_lookup_is_case_and_space_insensitive(self):
        profile = TRANSPORTS.get("vegas-at")
        assert TRANSPORTS.get("VEGAS-AT") is profile
        assert TRANSPORTS.get(" Vegas-AT ") is profile

    def test_transport_key_canonicalizes(self):
        assert transport_key("PACED-UDP") == "paced-udp"
        assert transport_key(" Vegas ") == "vegas"

    def test_label_is_not_a_lookup_key(self):
        with pytest.raises(ConfigurationError, match="registered: .*vegas-at"):
            TRANSPORTS.get("Vegas ACK Thinning")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            TRANSPORTS.get("cubic")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            TRANSPORTS.register(TransportProfile(
                name="vegas", label="Vegas again",
                build_sender=lambda ctx: None, build_sink=lambda ctx: None,
            ))



class TestRunnerIsVariantAgnostic:
    def test_runner_source_has_no_variant_branches(self):
        # The acceptance criterion of the registry redesign: the scenario
        # runner names no variant outside its docstring, so it cannot branch
        # on one.
        import repro.experiments.runner as runner_module

        source = inspect.getsource(runner_module).replace(runner_module.__doc__, "")
        for name in TRANSPORTS.names():
            assert f'"{name}"' not in source and f"'{name}'" not in source


class TestCombinedBuiltinVariant:
    """newreno-at-optwin exists purely as a registration — no runner code."""

    def test_builds_clamped_sender_and_thinning_sink(self):
        config = ScenarioConfig(variant="newreno-at-optwin", newreno_max_cwnd=3.0,
                                packet_target=50, max_sim_time=20.0)
        scenario = Scenario(ScenarioSpec(topology=chain_topology(hops=2),
                                         config=config))
        assert isinstance(scenario.senders[0], NewRenoSender)
        assert scenario.senders[0].max_cwnd == 3.0
        assert isinstance(scenario.sinks[0], AckThinningSink)


class TestProfileHasNoConfigHooks:
    """A variant's knobs are plain config fields its sender reads."""

    @pytest.mark.parametrize("hook", ["validate", "preset_overrides"])
    def test_profile_takes_no_config_hook(self, hook):
        with pytest.raises(TypeError):
            TransportProfile(name="hooked", label="Hooked",
                             build_sender=lambda ctx: None,
                             build_sink=lambda ctx: None, **{hook: None})

    def test_validator_names_are_gone(self):
        assert not hasattr(TransportProfile, "validate_config")
        with pytest.raises(ImportError):
            from repro.transport.registry import ConfigValidator  # noqa: F401


@pytest.fixture
def clamped_vegas_profile():
    """A brand-new variant registered on the fly: Vegas with α=1 thresholds."""
    profile = TransportProfile(
        name="test-vegas-a1",
        label="Vegas alpha=1 (test)",
        build_sender=lambda ctx: VegasSender(
            ctx.sim, ctx.flow, ctx.stats, config=ctx.config.tcp,
            tracer=ctx.tracer,
        ),
        build_sink=lambda ctx: TcpSink(
            ctx.sim, ctx.flow, ctx.stats, mss=ctx.config.tcp.mss,
            tracer=ctx.tracer,
        ),
    )
    TRANSPORTS.register(profile)
    yield profile
    TRANSPORTS.unregister(profile.name)


class TestCustomVariant:
    def test_config_accepts_custom_variant_as_string(self, clamped_vegas_profile):
        config = ScenarioConfig(variant="test-vegas-a1")
        assert config.variant == "test-vegas-a1"
        assert ScenarioConfig(variant="Test-Vegas-A1").variant == "test-vegas-a1"

    def test_scenario_builds_and_runs_custom_variant(self, clamped_vegas_profile):
        config = ScenarioConfig(variant="test-vegas-a1", packet_target=25,
                                max_sim_time=30.0)
        scenario = Scenario(ScenarioSpec(topology=chain_topology(hops=2),
                                         config=config))
        assert isinstance(scenario.senders[0], VegasSender)
        assert type(scenario.sinks[0]) is TcpSink
        result = scenario.run()
        assert result.delivered_packets >= 25
        assert result.variant == "Vegas alpha=1 (test)"

    def test_unregistered_variant_rejected_after_teardown(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(variant="test-vegas-a1")
