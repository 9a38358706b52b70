"""The one simulation kernel, as ``benchmarks/ledger/trace.py`` looks it up to
find the class whose ``schedule`` / ``schedule_at`` it counts."""

from __future__ import annotations

from types import SimpleNamespace
from typing import List

from repro.core.engine import Simulator


def kernel_backend_profiles() -> List[SimpleNamespace]:
    """One profile; its ``create()`` builds a :class:`Simulator`."""
    return [SimpleNamespace(name="reference", create=Simulator)]
