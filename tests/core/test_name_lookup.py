"""Unit tests for :func:`repro.core.registry.lookup`.

The per-subsystem tests (transport, topology, mobility) pin each name
table's built-in entries; these tests pin the rule every table shares:
names are case- and space-insensitive, and an unknown name is a
``ConfigurationError`` carrying the close matches and every name.
"""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.registry import did_you_mean, lookup
from repro.mobility.registry import MOBILITY_MODELS
from repro.topology.registry import TOPOLOGIES
from repro.transport.registry import TRANSPORTS

TABLE = {"alpha": 1, "bravo": 2}


@pytest.mark.parametrize("name", ["alpha", "ALPHA", "  Alpha ", "\tbravo\n"])
def test_lookup_is_case_and_space_insensitive(name):
    key = lookup(TABLE, "widget", name)
    assert key == name.strip().lower()
    assert key in TABLE


def test_unknown_name_lists_every_name():
    with pytest.raises(ConfigurationError,
                       match=r"^unknown widget 'nope' \(registered: alpha, bravo\)$"):
        lookup(TABLE, "widget", "nope")


def test_unknown_name_suggests_close_matches():
    with pytest.raises(ConfigurationError,
                       match=r"^unknown widget 'alpah'; did you mean 'alpha'\? "
                             r"\(registered: alpha, bravo\)$"):
        lookup(TABLE, "widget", "alpah")


@pytest.mark.parametrize("name", [None, 3, ("alpha",)])
def test_non_str_name_is_a_configuration_error(name):
    with pytest.raises(ConfigurationError, match=r"registered: alpha, bravo\)$"):
        lookup(TABLE, "widget", name)


@pytest.mark.parametrize("table", [TRANSPORTS, TOPOLOGIES, MOBILITY_MODELS])
def test_every_table_is_a_dict_keyed_by_canonical_names(table):
    # A key that is not canonical could never be looked up.
    assert type(table) is dict
    assert all(key == key.strip().lower() for key in table)


def test_did_you_mean():
    assert did_you_mean("alpah", ["alpha", "zulu"]) == "; did you mean 'alpha'?"
    assert did_you_mean("zzz", ["alpha"]) == ""
