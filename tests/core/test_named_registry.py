"""Unit tests for the shared NamedRegistry mechanics.

The per-subsystem registry tests (transport, topology, mobility, executor,
link layer) pin the public wording of each registry's errors;
these tests pin the shared semantics every registry inherits — case- and
space-insensitive names, duplicate detection, replacement, removal and the
two unknown-name message styles.
"""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.registry import NamedRegistry, normalize_name


def test_normalize_name_strips_and_lowercases():
    assert normalize_name("  Wired ") == "wired"
    assert normalize_name("CHAIN") == "chain"


def test_register_and_get_roundtrip():
    reg = NamedRegistry("widget")
    reg.register("payload", name="alpha")
    assert reg.get("alpha") == "payload"
    assert reg.get("  Alpha ") == "payload"
    assert "alpha" in reg
    assert len(reg) == 1


def test_duplicate_name_rejected_without_replace():
    reg = NamedRegistry("widget")
    reg.register("one", name="alpha")
    with pytest.raises(ConfigurationError, match="already registered"):
        reg.register("two", name="alpha")
    assert reg.get("alpha") == "one"


def test_replace_overwrites():
    reg = NamedRegistry("widget")
    reg.register("one", name="alpha")
    reg.register("two", name="Alpha", replace=True)
    assert reg.get("alpha") == "two"
    assert len(reg) == 1


def test_unregister_and_unknown_is_noop():
    reg = NamedRegistry("widget")
    reg.register("one", name="alpha")
    assert reg.unregister("nonesuch") is False
    assert reg.unregister(" ALPHA ") is True
    assert "alpha" not in reg
    assert reg.names() == []


def test_names_and_values_sorted_by_canonical_name():
    reg = NamedRegistry("widget")
    reg.register("b-val", name="bravo")
    reg.register("a-val", name="alpha")
    assert reg.names() == ["alpha", "bravo"]
    assert reg.values() == ["a-val", "b-val"]


def test_unknown_message_list_style_without_listing():
    reg = NamedRegistry("widget")
    reg.register("one", name="alpha")
    with pytest.raises(ConfigurationError,
                       match=r"unknown widget 'nope'; registered: alpha"):
        reg.get("nope")


def test_unknown_message_suggestion_style_with_listing():
    reg = NamedRegistry("widget", suggestion_listing="widgets --list")
    reg.register("one", name="alpha")
    with pytest.raises(ConfigurationError, match=r"did you mean 'alpha'"):
        reg.get("alpah")
    with pytest.raises(ConfigurationError, match=r"run `widgets --list`"):
        reg.get("zzz")
