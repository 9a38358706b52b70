"""Application base class.

Applications sit on top of a transport agent and only decide *when* data is
generated; the transport decides *how* it is carried.  The two applications in
this study are persistent FTP (drives a TCP sender) and CBR (drives a paced
UDP sender).
"""

from __future__ import annotations

import abc

from repro.core.engine import Simulator
from repro.metrics import MetricsRegistry, NULL_METRICS, StatsRecord


class AppStats(StatsRecord):
    """What an application records, published as ``app.flow<N>.<field>``."""

    __slots__ = {
        "starts": "Times the application started.",
        "started_at": "Simulated time traffic generation began (s).",
    }

    def __init__(self, registry: MetricsRegistry = NULL_METRICS,
                 prefix: str = "") -> None:
        super().__init__(registry, prefix)
        self.started_at = 0.0


class Application(abc.ABC):
    """Base class for traffic-generating applications."""

    def __init__(self, sim: Simulator, start_time: float = 0.0) -> None:
        self.sim = sim
        self.start_time = start_time
        self._started = False
        self.stats = AppStats()

    def bind_metrics(self, registry: MetricsRegistry, prefix: str) -> None:
        """Publish the application's stats under ``prefix``.

        Called by the scenario runner after construction (applications are
        built by transport-profile factories that know nothing about the
        metrics plane).  Registers ``<prefix>.starts`` and
        ``<prefix>.started_at``.
        """
        registry.register(prefix, self.stats)

    def schedule_start(self) -> None:
        """Schedule the application to start at its configured start time."""
        delay = max(0.0, self.start_time - self.sim.now)
        self.sim.schedule(delay, self._start_once)

    def start_now(self) -> None:
        """Start generating traffic immediately (idempotent).

        Used by scenario-timeline ``flow-start`` events, whose flows are not
        auto-scheduled; calling it on an already-started application is a
        no-op.  The event takes over the flow's schedule entirely, so a
        configured ``start_time`` later than now is pulled forward.
        """
        self.start_time = min(self.start_time, self.sim.now)
        self._start_once()

    def _start_once(self) -> None:
        if self._started:
            return
        self._started = True
        self.stats.starts += 1
        self.stats.started_at = self.sim.now
        self.on_start()

    @property
    def started(self) -> bool:
        """True once the application has begun generating traffic."""
        return self._started

    @abc.abstractmethod
    def on_start(self) -> None:
        """Begin generating traffic."""

    @abc.abstractmethod
    def stop(self) -> None:
        """Stop generating traffic."""
