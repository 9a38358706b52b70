"""Shared mechanics behind the named registries.

Five subsystems resolve pluggable components by short name — transports,
topologies, mobility models, link layers and executor backends — and
before this module each reimplemented the same ~60 lines:
a module-level dict keyed by a case/space-normalised name, duplicate
detection with a ``replace=`` escape hatch, alias lookup with hijack
protection, a monotone generation counter for preset-cache invalidation,
sorted listings and difflib "did you mean" suggestions.

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
from typing import Dict, Iterable, List, Optional, Tuple

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
        #: Every lookup key (name, label, alias) → owning canonical key.
        self._lookup: Dict[str, str] = {}
        #: Canonical key → the (name, *aliases) spellings it registered.
        self._aliases: Dict[str, Tuple[str, ...]] = {}
        self._generation = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def register(self, value: object, *, name: str,
                 aliases: Iterable[str] = (),
                 replace: bool = False) -> None:
        """Store ``value`` under ``name`` (plus optional alias spellings).

        ``replace=True`` permits overwriting the same-name registration —
        it never lets a registration hijack another entry's name or aliases.
        Replacing drops the replaced entry's stale aliases.

        Raises:
            ConfigurationError: On a duplicate name without ``replace``, or
                when any alias already points at a different entry.
        """
        key = normalize_name(name)
        if key in self._entries and not replace:
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered")
        spellings = (name, *aliases)
        for alias in spellings:
            owner = self._lookup.get(normalize_name(alias))
            if owner is not None and owner != key:
                raise ConfigurationError(
                    f"{self.kind} alias {alias!r} already points at {owner!r}"
                )
        if key in self._entries:
            self._drop(key)  # drop the replaced entry's stale aliases
        self._entries[key] = value
        self._aliases[key] = spellings
        for alias in spellings:
            self._lookup[normalize_name(alias)] = key
        self._generation += 1

    def unregister(self, name: str) -> bool:
        """Remove an entry by any of its spellings; unknown names are a no-op.

        Returns:
            True when an entry was removed (the generation advanced).
        """
        key = self._lookup.get(normalize_name(name), normalize_name(name))
        if key not in self._entries:
            return False
        self._drop(key)
        self._generation += 1
        return True

    def _drop(self, key: str) -> None:
        del self._entries[key]
        for alias in self._aliases.pop(key, ()):
            if self._lookup.get(normalize_name(alias)) == key:
                del self._lookup[normalize_name(alias)]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def resolve_key(self, name: str) -> Optional[str]:
        """Canonical key of any registered spelling, or None if unknown."""
        return self._lookup.get(normalize_name(name))

    def lookup(self, name: str) -> Optional[object]:
        """The entry registered under any spelling, or None if unknown."""
        key = self._lookup.get(normalize_name(name))
        return None if key is None else self._entries[key]

    def get(self, name: str) -> object:
        """Resolve an entry by name.

        Raises:
            ConfigurationError: If the name is unknown.  With a
                ``suggestion_listing`` the message carries difflib
                close-match suggestions and the listing-command pointer
                (CLIs turn it into an exit-2 error); otherwise it lists the
                registered names.
        """
        entry = self.lookup(name)
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

    @property
    def generation(self) -> int:
        """Monotone counter bumped on every successful (un)registration.

        Lets derived caches (e.g. the generated scenario preset table)
        detect that the set of registered entries changed.
        """
        return self._generation

    def __contains__(self, name: str) -> bool:
        return normalize_name(name) in self._entries

    def __len__(self) -> int:
        return len(self._entries)
