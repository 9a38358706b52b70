"""Shared mechanics behind the named registries.

Three subsystems resolve pluggable components by short name — transports,
topologies and mobility models.  Each registry module exports one
:class:`NamedRegistry` constant, and that object is the API: register a
profile, look one up, list them::

    TOPOLOGIES = NamedRegistry("topology")

    TOPOLOGIES.register(TopologyProfile(name="star", builder=star_topology))
    TOPOLOGIES.get("star").build(arms=4)
    TOPOLOGIES.names()

Names are case- and space-insensitive.  The registry stores whatever
profile it is handed and reads nothing from it but its ``name``.
"""

from __future__ import annotations

import difflib
from typing import Dict, Iterable, List, TypeVar

from repro.core.errors import ConfigurationError

__all__ = ["NamedRegistry", "did_you_mean", "normalize_name"]

P = TypeVar("P")


def normalize_name(name: str) -> str:
    """Canonical registry key of a name (case- and space-insensitive)."""
    return name.strip().lower()


def did_you_mean(name: str, names: Iterable[str]) -> str:
    """``"; did you mean 'a', 'b'?"`` for the close matches of ``name``
    among ``names``, or ``""`` when there are none."""
    suggestions = difflib.get_close_matches(name, list(names), n=3, cutoff=0.5)
    if not suggestions:
        return ""
    return f"; did you mean {', '.join(repr(s) for s in suggestions)}?"


class NamedRegistry:
    """Name → profile store shared by every pluggable-component registry.

    Args:
        kind: Human-readable component kind used verbatim in error messages
            (``"topology"``, ``"mobility model"``).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, object] = {}

    def register(self, profile: P, replace: bool = False) -> P:
        """Store ``profile`` under its ``name``; returns the profile.

        Raises:
            ConfigurationError: On a duplicate name without ``replace``.
        """
        key = normalize_name(profile.name)
        if key in self._entries and not replace:
            raise ConfigurationError(
                f"{self.kind} {profile.name!r} is already registered")
        self._entries[key] = profile
        return profile

    def unregister(self, name: str) -> bool:
        """Remove an entry by name; unknown names are a no-op.

        Returns:
            True when an entry was removed.
        """
        return self._entries.pop(normalize_name(name), None) is not None

    def get(self, name: str) -> object:
        """Resolve an entry by name.

        Raises:
            ConfigurationError: If ``name`` is not a registered name (or not
                a ``str`` at all); the message carries the close matches and
                every registered name.
        """
        hint = ""
        if isinstance(name, str):
            entry = self._entries.get(normalize_name(name))
            if entry is not None:
                return entry
            hint = did_you_mean(name, self.names())
        raise ConfigurationError(f"unknown {self.kind} {name!r}{hint} "
                                 f"(registered: {', '.join(self.names())})")

    def names(self) -> List[str]:
        """Sorted canonical names of every registered entry."""
        return sorted(self._entries)

    def values(self) -> List[object]:
        """All registered entries, sorted by canonical name."""
        return [self._entries[name] for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return normalize_name(name) in self._entries

    def __len__(self) -> int:
        return len(self._entries)
