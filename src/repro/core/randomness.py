"""Deterministic random-number management.

Every stochastic component (MAC backoff, AODV jitter, topology generation, …)
draws from its own named stream derived from a single scenario seed.  This
keeps runs reproducible and lets one component's consumption pattern change
without perturbing another's, which matters when comparing protocol variants
on "the same" random topology.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


class RandomManager:
    """Factory for named, independently seeded random streams.

    Args:
        seed: Master scenario seed.  Identical seeds yield identical streams.
    """

    def __init__(self, seed: int = 1) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The master seed this manager was created with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the random stream for ``name``, creating it on first use.

        The per-stream seed is derived from the master seed and a CRC of the
        stream name, so streams are stable across runs and independent of the
        order in which they are requested.
        """
        if name not in self._streams:
            derived = (self._seed * 1_000_003 + zlib.crc32(name.encode("utf-8"))) & 0x7FFFFFFF
            self._streams[name] = random.Random(derived)
        return self._streams[name]
