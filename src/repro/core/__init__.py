"""Core simulation infrastructure: event engine, randomness, statistics, tracing."""

from repro.core.engine import Simulator, Timer
from repro.core.errors import (
    ConfigurationError,
    PacketError,
    RoutingError,
    SchedulingError,
    SimulationError,
    TopologyError,
    TransportError,
)
from repro.core.randomness import RandomManager
from repro.core.statistics import (
    BatchMeans,
    ConfidenceInterval,
    TimeWeightedAverage,
    confidence_interval,
    jain_fairness_index,
    mean,
)
from repro.core.tracing import NULL_TRACER, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "Timer",
    "SimulationError",
    "ConfigurationError",
    "SchedulingError",
    "PacketError",
    "RoutingError",
    "TransportError",
    "TopologyError",
    "RandomManager",
    "BatchMeans",
    "ConfidenceInterval",
    "TimeWeightedAverage",
    "confidence_interval",
    "jain_fairness_index",
    "mean",
    "NULL_TRACER",
    "TraceRecord",
    "Tracer",
]
