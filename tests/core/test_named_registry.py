"""Unit tests for the shared NamedRegistry mechanics.

The per-subsystem registry tests (transport, topology, mobility, executor,
link layer) pin the public wording of each registry's errors;
these tests pin the shared semantics every registry inherits — alias hijack
protection, stale-alias cleanup on replace, generation accounting and the
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


def test_replace_overwrites_and_bumps_generation_once():
    reg = NamedRegistry("widget")
    reg.register("one", name="alpha")
    before = reg.generation
    reg.register("two", name="alpha", replace=True)
    assert reg.get("alpha") == "two"
    assert reg.generation == before + 1


def test_aliases_resolve_to_the_same_entry():
    reg = NamedRegistry("widget")
    reg.register("payload", name="alpha", aliases=("Alpha One", "a1"))
    assert reg.get("a1") == "payload"
    assert reg.get("alpha one") == "payload"
    assert reg.resolve_key("A1") == "alpha"


def test_replace_cannot_hijack_another_entries_alias():
    reg = NamedRegistry("widget")
    reg.register("one", name="alpha", aliases=("a1",))
    with pytest.raises(ConfigurationError, match="already points at 'alpha'"):
        reg.register("two", name="beta", aliases=("a1",), replace=True)
    assert reg.get("a1") == "one"


def test_replace_drops_stale_aliases_of_the_replaced_entry():
    reg = NamedRegistry("widget")
    reg.register("one", name="alpha", aliases=("old",))
    reg.register("two", name="alpha", aliases=("new",), replace=True)
    assert reg.lookup("old") is None
    assert reg.get("new") == "two"


def test_unregister_by_alias_and_unknown_is_noop():
    reg = NamedRegistry("widget")
    reg.register("one", name="alpha", aliases=("a1",))
    before = reg.generation
    assert reg.unregister("nonesuch") is False
    assert reg.generation == before
    assert reg.unregister("A1") is True
    assert reg.generation == before + 1
    assert reg.lookup("alpha") is None
    assert reg.lookup("a1") is None


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
