"""Name lookup shared by the three name tables.

Transports, topologies and mobility models are chosen by short name.  Each
is a plain ``dict`` literal in its own module, from canonical lower-case name
to what it builds — :data:`repro.transport.registry.TRANSPORTS`,
:data:`repro.topology.registry.TOPOLOGIES` and
:data:`repro.mobility.registry.MOBILITY_MODELS` — so adding an entry means
editing that module's table.  A name is made canonical once, where it enters
a config or a sweep, by :func:`lookup`; inside, every use is ``TABLE[key]``.
"""

from __future__ import annotations

import difflib
from typing import Iterable, Mapping

from repro.core.errors import ConfigurationError

__all__ = ["did_you_mean", "lookup"]


def did_you_mean(name: str, names: Iterable[str]) -> str:
    """``"; did you mean 'a', 'b'?"`` for the close matches of ``name``
    among ``names``, or ``""`` when there are none."""
    suggestions = difflib.get_close_matches(name, list(names), n=3, cutoff=0.5)
    if not suggestions:
        return ""
    return f"; did you mean {', '.join(repr(s) for s in suggestions)}?"


def lookup(table: Mapping[str, object], kind: str, name: object) -> str:
    """Canonical key of ``name`` in ``table`` (case- and space-insensitive).

    Args:
        table: A name table (canonical lower-case name → entry).
        kind: Human-readable entry kind used verbatim in the error message
            (``"topology"``, ``"mobility model"``).
        name: The name to resolve.

    Raises:
        ConfigurationError: If ``name`` is not a key of ``table`` (or not a
            ``str`` at all); the message carries the close matches and every
            name in the table.
    """
    hint = ""
    if isinstance(name, str):
        key = name.strip().lower()
        if key in table:
            return key
        hint = did_you_mean(name, sorted(table))
    raise ConfigurationError(f"unknown {kind} {name!r}{hint} "
                             f"(registered: {', '.join(sorted(table))})")
