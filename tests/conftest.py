"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.core.engine import Simulator
from repro.core.randomness import RandomManager
from repro.core.tracing import Tracer
from repro.mac.timing import MacTiming, timing_for_bandwidth
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import Position

from tests.helpers import KERNELS


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator for each test."""
    return Simulator()


@pytest.fixture(scope="module", params=sorted(KERNELS))
def make_sim(request):
    """Builds a simulator of one of ``tests.helpers.KERNELS`` per call.

    Module-scoped (hypothesis forbids function-scoped fixtures under
    ``@given``); every call builds a new one, so examples never share state.
    """
    return KERNELS[request.param]


@pytest.fixture
def randomness() -> RandomManager:
    """A deterministic random manager."""
    return RandomManager(seed=42)


@pytest.fixture
def tracer() -> Tracer:
    """An enabled tracer for behavioural assertions."""
    return Tracer(enabled=True)


@pytest.fixture
def timing_2mbps() -> MacTiming:
    """MAC timing at the paper's baseline 2 Mbit/s data rate."""
    return timing_for_bandwidth(2.0)


@pytest.fixture
def channel(sim: Simulator) -> WirelessChannel:
    """An empty wireless channel."""
    return WirelessChannel(sim)


def make_positions(*coords):
    """Build a {node_id: Position} dict from (x, y) tuples."""
    return {index: Position(x=float(x), y=float(y)) for index, (x, y) in enumerate(coords)}
