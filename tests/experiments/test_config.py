"""Tests for scenario configuration."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.config import (
    PAPER_BANDWIDTHS,
    PAPER_HOP_COUNTS,
    ScenarioConfig,
)
from repro.mac.queue import DropTailQueue


def test_paper_constants():
    assert PAPER_BANDWIDTHS == (2.0, 5.5, 11.0)
    assert PAPER_HOP_COUNTS == (2, 4, 8, 16, 32, 64)


class TestScenarioConfig:
    def test_defaults_match_paper_table1(self):
        config = ScenarioConfig()
        assert config.tcp.mss == 1460
        assert config.tcp.max_window == 64
        assert config.tcp.initial_window == 1
        assert config.vegas_alpha == 2.0
        assert DropTailQueue.DEFAULT_CAPACITY == 50
        assert config.routing == "aodv"

    def test_static_mobility_in_any_spelling_keeps_static_routing(self):
        config = ScenarioConfig(mobility="Static", routing="static")
        assert config.mobility == "static"

    @pytest.mark.parametrize("variant, mobility", [
        ("Vegas-AT", " Random-Walk "), (" NEWRENO", "MANHATTAN")])
    def test_names_are_held_canonical(self, variant, mobility):
        canonical = ScenarioConfig(variant=variant.strip().lower(),
                                   mobility=mobility.strip().lower())
        assert ScenarioConfig(variant=variant, mobility=mobility) == canonical

    def test_unknown_mobility_model_lists_every_model(self):
        with pytest.raises(ConfigurationError,
                           match=r"unknown mobility model 'teleport' "
                                 r"\(registered: manhattan, random-walk, "
                                 r"random-waypoint, static\)"):
            ScenarioConfig(mobility="teleport")

    def test_queue_capacity_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            ScenarioConfig(queue_capacity=10)

    def test_vegas_parameters_alpha_equals_beta_equals_gamma(self):
        params = ScenarioConfig(vegas_alpha=3.0).vegas_parameters()
        assert params.alpha == params.beta == params.gamma == 3.0

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(bandwidth_mbps=0.0)

    def test_invalid_packet_target_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(packet_target=0)

    def test_unknown_routing_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(routing="dsr")

    def test_expanding_ring_requires_aodv(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(routing="static", aodv_expanding_ring=True)
        assert ScenarioConfig(aodv_expanding_ring=True).aodv_expanding_ring

    def test_optimal_window_variant_defaults_to_the_paper_clamp(self):
        assert ScenarioConfig(variant="newreno-optwin").newreno_max_cwnd == 3.0

    def test_ack_thinning_defaults(self):
        config = ScenarioConfig()
        assert (config.ack_thinning.s1, config.ack_thinning.s2, config.ack_thinning.s3) == (2, 5, 9)
        assert config.ack_thinning.max_delay == pytest.approx(0.1)
