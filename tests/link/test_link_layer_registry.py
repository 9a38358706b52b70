"""Tests for the link-layer registry and the built-in plan builders."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.link.plan import LinkPlan, WiredSegmentSpec
from repro.link.registry import LINK_LAYERS, LinkLayerProfile
from repro.topology.chain import chain_topology


class TestRegistry:
    def test_builtins_registered(self):
        assert "wireless" in LINK_LAYERS.names()
        assert "wired" in LINK_LAYERS.names()

    def test_lookup_is_case_insensitive(self):
        assert LINK_LAYERS.get("Wireless").name == "wireless"
        assert LINK_LAYERS.get(" WIRED ").name == "wired"

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(ConfigurationError,
                           match=r"did you mean 'wired'"):
            LINK_LAYERS.get("wried")
        with pytest.raises(ConfigurationError,
                           match=r"\(registered: wired, wireless\)"):
            LINK_LAYERS.get("wried")

    def test_duplicate_rejected_without_replace(self):
        profile = LinkLayerProfile(name="wireless",
                                   build_plan=lambda t, c: LinkPlan())
        with pytest.raises(ConfigurationError, match="already registered"):
            LINK_LAYERS.register(profile)

    def test_register_and_unregister_custom_profile(self):
        LINK_LAYERS.register(LinkLayerProfile(
            name="test-bus", build_plan=lambda t, c: LinkPlan(),
            description="for the registry test"))
        try:
            assert LINK_LAYERS.get("test-bus").description == "for the registry test"
            assert any(p.name == "test-bus" for p in LINK_LAYERS.values())
        finally:
            LINK_LAYERS.unregister("test-bus")
        assert "test-bus" not in LINK_LAYERS.names()

    def test_scenario_config_validates_link_layer(self):
        with pytest.raises(ConfigurationError, match="unknown link layer"):
            ScenarioConfig(link_layer="token-ring")
        with pytest.raises(ConfigurationError, match="wired_rate_mbps"):
            ScenarioConfig(link_layer="wired", wired_rate_mbps=0.0)
        with pytest.raises(ConfigurationError, match="mobility"):
            ScenarioConfig(link_layer="wired", routing="aodv",
                           mobility="random-waypoint")


class TestBuiltinPlans:
    def test_wireless_plan_covers_all_nodes_with_no_segments(self):
        topology = chain_topology(hops=3)
        plan = LINK_LAYERS.get("wireless").build_plan(topology, ScenarioConfig())
        assert plan.is_pure_wireless
        assert plan.wireless_nodes == tuple(topology.node_ids)
        assert plan.gateways == ()

    def test_wired_plan_builds_one_bus_from_config_knobs(self):
        topology = chain_topology(hops=3)
        config = ScenarioConfig(link_layer="wired", wired_rate_mbps=100.0,
                                wired_propagation_delay=1e-6)
        plan = LINK_LAYERS.get("wired").build_plan(topology, config)
        assert not plan.is_pure_wireless
        assert plan.wireless_nodes == ()
        (segment,) = plan.segments
        assert segment.nodes == tuple(topology.node_ids)
        assert segment.rate_mbps == 100.0
        assert segment.propagation_delay == 1e-6


class TestLinkPlanValidation:
    def test_segment_needs_two_nodes(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            WiredSegmentSpec(nodes=(1,))

    def test_gateway_must_be_on_both_planes(self):
        segment = WiredSegmentSpec(nodes=(0, 1))
        with pytest.raises(ConfigurationError, match="no wireless interface"):
            LinkPlan(wireless_nodes=(2, 3), segments=(segment,), gateways=(0,))
        with pytest.raises(ConfigurationError, match="not attached to any"):
            LinkPlan(wireless_nodes=(2, 3), segments=(segment,), gateways=(2,))

    def test_dual_plane_node_must_be_a_gateway(self):
        segment = WiredSegmentSpec(nodes=(0, 1))
        with pytest.raises(ConfigurationError, match="not a gateway"):
            LinkPlan(wireless_nodes=(0, 2), segments=(segment,))

    def test_node_on_one_segment_only(self):
        with pytest.raises(ConfigurationError, match="more than one"):
            LinkPlan(segments=(WiredSegmentSpec(nodes=(0, 1)),
                               WiredSegmentSpec(nodes=(1, 2))))
