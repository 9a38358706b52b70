"""Tests for the named topology registry."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.topology.chain import chain_topology
from repro.topology.registry import TOPOLOGIES, TopologyProfile


class TestBuiltinFamilies:
    def test_paper_topologies_registered(self):
        assert {"chain", "grid", "random"}.issubset(TOPOLOGIES.names())

    def test_build_chain_by_name_matches_direct_builder(self):
        by_name = TOPOLOGIES.get("chain").build(hops=4)
        direct = chain_topology(hops=4)
        assert by_name.name == direct.name
        assert by_name.positions == direct.positions
        assert by_name.flows == direct.flows

    def test_build_grid_by_name(self):
        assert TOPOLOGIES.get("grid").build().node_count == 21

    def test_random_is_seed_stable(self):
        random = TOPOLOGIES.get("random")
        a = random.build(node_count=20, area=(600.0, 400.0), flow_count=2, seed=5)
        b = random.build(node_count=20, area=(600.0, 400.0), flow_count=2, seed=5)
        assert a.positions == b.positions
        assert a.flows == b.flows

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            TOPOLOGIES.get("torus")


class TestRegistration:
    def test_register_and_unregister_custom_family(self):
        profile = TopologyProfile(
            name="test-pair",
            builder=lambda spacing=100.0: chain_topology(hops=1, spacing=spacing),
        )
        TOPOLOGIES.register(profile)
        try:
            assert TOPOLOGIES.get("test-pair").build(spacing=150.0).node_count == 2
        finally:
            TOPOLOGIES.unregister("test-pair")
        with pytest.raises(ConfigurationError):
            TOPOLOGIES.get("test-pair")

    def test_duplicate_family_rejected(self):
        with pytest.raises(ConfigurationError):
            TOPOLOGIES.register(TopologyProfile(name="chain", builder=chain_topology))
