"""Tests for the topology-family name table."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.registry import lookup
from repro.topology.chain import chain_topology
from repro.topology.registry import TOPOLOGIES


class TestBuiltinFamilies:
    def test_paper_topologies_present(self):
        assert {"chain", "grid", "random"}.issubset(TOPOLOGIES)

    def test_build_chain_by_name_matches_direct_builder(self):
        by_name = TOPOLOGIES["chain"](hops=4)
        direct = chain_topology(hops=4)
        assert by_name.name == direct.name
        assert by_name.positions == direct.positions
        assert by_name.flows == direct.flows

    def test_build_grid_by_name(self):
        assert TOPOLOGIES["grid"]().node_count == 21

    def test_random_is_seed_stable(self):
        random = TOPOLOGIES["random"]
        a = random(node_count=20, area=(600.0, 400.0), flow_count=2, seed=5)
        b = random(node_count=20, area=(600.0, 400.0), flow_count=2, seed=5)
        assert a.positions == b.positions
        assert a.flows == b.flows

    def test_lookup_is_case_insensitive(self):
        assert lookup(TOPOLOGIES, "topology", " Chain ") == "chain"

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="registered: backbone"):
            lookup(TOPOLOGIES, "topology", "torus")
