"""Unit tests for the shared NamedRegistry mechanics.

The per-subsystem registry tests (transport, topology, mobility, executor,
link layer) pin each registry's built-in entries; these tests pin the
semantics every registry shares — case- and space-insensitive names keyed by
``profile.name``, duplicate detection, replacement, removal and the
unknown-name message.
"""

from types import SimpleNamespace

import pytest

from repro.core.errors import ConfigurationError
from repro.core.registry import NamedRegistry, did_you_mean, normalize_name


def widget(name: str, payload: str = "") -> SimpleNamespace:
    return SimpleNamespace(name=name, payload=payload)


def test_normalize_name_strips_and_lowercases():
    assert normalize_name("  Wired ") == "wired"
    assert normalize_name("CHAIN") == "chain"


def test_register_and_get_roundtrip():
    reg = NamedRegistry("widget")
    alpha = widget("alpha")
    assert reg.register(alpha) is alpha
    assert reg.get("alpha") is alpha
    assert reg.get("  Alpha ") is alpha
    assert "alpha" in reg
    assert len(reg) == 1


def test_register_keys_by_profile_name():
    reg = NamedRegistry("widget")
    reg.register(widget(" Alpha "))
    assert reg.names() == ["alpha"]


def test_duplicate_name_rejected_without_replace():
    reg = NamedRegistry("widget")
    reg.register(widget("alpha", "one"))
    with pytest.raises(ConfigurationError, match="already registered"):
        reg.register(widget("alpha", "two"))
    assert reg.get("alpha").payload == "one"


def test_replace_overwrites():
    reg = NamedRegistry("widget")
    reg.register(widget("alpha", "one"))
    reg.register(widget("Alpha", "two"), replace=True)
    assert reg.get("alpha").payload == "two"
    assert len(reg) == 1


def test_unregister_and_unknown_is_noop():
    reg = NamedRegistry("widget")
    reg.register(widget("alpha"))
    assert reg.unregister("nonesuch") is False
    assert reg.unregister(" ALPHA ") is True
    assert "alpha" not in reg
    assert reg.names() == []


def test_names_and_values_sorted_by_canonical_name():
    reg = NamedRegistry("widget")
    bravo, alpha = widget("bravo"), widget("alpha")
    reg.register(bravo)
    reg.register(alpha)
    assert reg.names() == ["alpha", "bravo"]
    assert reg.values() == [alpha, bravo]


def test_unknown_name_lists_registered_names():
    reg = NamedRegistry("widget")
    reg.register(widget("alpha"))
    reg.register(widget("bravo"))
    with pytest.raises(ConfigurationError,
                       match=r"^unknown widget 'nope' \(registered: alpha, bravo\)$"):
        reg.get("nope")


def test_unknown_name_suggests_close_matches_and_lists_registered_names():
    reg = NamedRegistry("widget")
    reg.register(widget("alpha"))
    with pytest.raises(ConfigurationError,
                       match=r"^unknown widget 'alpah'; did you mean 'alpha'\? "
                             r"\(registered: alpha\)$"):
        reg.get("alpah")


@pytest.mark.parametrize("name", [None, 3, ("alpha",)])
def test_non_str_name_is_a_configuration_error(name):
    reg = NamedRegistry("widget")
    reg.register(widget("alpha"))
    with pytest.raises(ConfigurationError, match=r"registered: alpha"):
        reg.get(name)


def test_did_you_mean():
    assert did_you_mean("alpah", ["alpha", "zulu"]) == "; did you mean 'alpha'?"
    assert did_you_mean("zzz", ["alpha"]) == ""
