"""Smoke-mode scaling for examples and ad-hoc scripts.

CI runs every example with ``REPRO_SMOKE=1`` to catch drift between the
examples and the library API without paying for full-scale simulations.
Scripts opt in by routing their scale knobs through :func:`smoke_scaled`::

    from repro.experiments.smoke import smoke_scaled

    parser.add_argument("--packets", type=int,
                        default=smoke_scaled(300, 40))
    parser.add_argument("--replications", type=int,
                        default=smoke_scaled(3, 1))

With ``REPRO_SMOKE`` unset (or ``0``/empty) the full-scale default is used;
any other value selects the reduced smoke default.  It works through the
environment so CI does not need to know each script's flag spelling.
"""

from __future__ import annotations

import os
from typing import TypeVar

T = TypeVar("T")

#: Environment variable that switches smoke mode on.
SMOKE_ENV = "REPRO_SMOKE"


def smoke_mode() -> bool:
    """True when ``REPRO_SMOKE`` requests reduced-scale runs."""
    return os.environ.get(SMOKE_ENV, "").strip() not in ("", "0", "false", "no")


def smoke_scaled(full: T, smoke: T) -> T:
    """``smoke`` under ``REPRO_SMOKE``, ``full`` otherwise (works for scalar
    knobs and list-valued sweep defaults alike)."""
    return smoke if smoke_mode() else full
