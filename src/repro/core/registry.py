"""Shared mechanics behind the named registries.

Five subsystems resolve pluggable components by short name — transports,
topologies, mobility models, link layers and executor backends — and
before this module each reimplemented the same ~60 lines:
a module-level dict keyed by a case/space-normalised name, duplicate
detection with a ``replace=`` escape hatch, sorted listings and difflib
"did you mean" suggestions.

:class:`NamedRegistry` is that machinery, once.  Each registry module stays
the public API — thin functions with the exact signatures and error-message
wording they always had — and delegates storage and bookkeeping here::

    _TOPOLOGIES = NamedRegistry("topology")

    def register_topology(profile, replace=False):
        _TOPOLOGIES.register(profile, name=profile.name, replace=replace)
        return profile

The registry is deliberately value-agnostic: it stores whatever profile
object the caller hands it and never inspects it beyond the ``name`` the
caller passes explicitly.
"""

from __future__ import annotations

import difflib
from typing import Dict, List, Optional

from repro.core.errors import ConfigurationError

__all__ = ["NamedRegistry", "normalize_name"]


def normalize_name(name: str) -> str:
    """Canonical registry key of a name (case- and space-insensitive)."""
    return name.strip().lower()


class NamedRegistry:
    """Name → profile store shared by every pluggable-component registry.

    Args:
        kind: Human-readable component kind used verbatim in error messages
            (``"topology"``, ``"link layer"``, ``"mobility model"``).
        suggestion_listing: When set, :meth:`get` raises unknown-name errors
            in the difflib-suggestion style, pointing at this CLI listing
            command (``"python -m ... --list-backends"``); when ``None`` it
            uses the "registered: a, b, c" style instead.
    """

    def __init__(self, kind: str,
                 suggestion_listing: Optional[str] = None) -> None:
        self.kind = kind
        self.suggestion_listing = suggestion_listing
        self._entries: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def register(self, value: object, *, name: str,
                 replace: bool = False) -> None:
        """Store ``value`` under ``name``.

        Raises:
            ConfigurationError: On a duplicate name without ``replace``.
        """
        key = normalize_name(name)
        if key in self._entries and not replace:
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered")
        self._entries[key] = value

    def unregister(self, name: str) -> bool:
        """Remove an entry by name; unknown names are a no-op.

        Returns:
            True when an entry was removed.
        """
        return self._entries.pop(normalize_name(name), None) is not None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> object:
        """Resolve an entry by name.

        Raises:
            ConfigurationError: If the name is unknown.  With a
                ``suggestion_listing`` the message carries difflib
                close-match suggestions and the listing-command pointer
                (CLIs turn it into an exit-2 error); otherwise it lists the
                registered names.
        """
        entry = self._entries.get(normalize_name(name))
        if entry is None:
            raise ConfigurationError(self.unknown_message(name))
        return entry

    def unknown_message(self, name: str) -> str:
        """The unknown-name error text :meth:`get` raises for ``name``."""
        if self.suggestion_listing is None:
            return (f"unknown {self.kind} {name!r}; "
                    f"registered: {', '.join(self.names())}")
        suggestions = difflib.get_close_matches(
            name, self.names(), n=3, cutoff=0.5)
        hint = (f"; did you mean {', '.join(repr(s) for s in suggestions)}?"
                if suggestions else "")
        return (f"unknown {self.kind} {name!r}{hint} "
                f"(run `{self.suggestion_listing}` for all {self.kind}s)")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
