"""The per-scenario metrics registry, its stats records and time series.

One :class:`MetricsRegistry` instance exists per scenario and is shared by
every layer of the stack, exactly like the scenario's
:class:`~repro.core.tracing.Tracer`.  It holds three things:

* **stats records** — each layer keeps its counts in a slotted
  :class:`StatsRecord` (``MacStats``, ``RoutingStats``, …) that registers
  itself once under a dotted prefix; the owning layer updates the fields in
  place (``stats.rts_tx += 1``) and the registry reads them as
  ``<prefix>.<field>`` (``mac.node3.data_dropped_retry``);
* **end-of-run values** — scalars computed once when results are collected
  (energy, event counts), written with :meth:`MetricsRegistry.set`;
* **time series** — timestamped samples (``tcp.flow1.cwnd``), fed by their
  owners or by periodic probes.

The experiment harness harvests the scalars at the end of a run with
:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.total`.

Enabled vs. disabled
--------------------
Records and end-of-run values are *always* live — they are the system of
record for the scalars (goodput, retransmissions, drop probabilities) every
run needs, and an update is one attribute write.  The registry's ``enabled``
flag gates only the *time-series plane*:

* :meth:`timeseries` still returns a series, but stats records only create
  (and feed) series when ``enabled`` is true;
* :meth:`add_probe` registers nothing when disabled;
* :meth:`start_sampling` schedules no engine events when disabled.

A disabled run therefore schedules exactly the same events as a run built
before the metrics plane existed — the golden-trace regression suite pins
this.

Components constructed without a registry receive the shared
:data:`NULL_METRICS`, which retains nothing (their records still count, but
appear in no snapshot) and can never be enabled, mirroring
:class:`repro.core.tracing.NullTracer`.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional,
                    Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.engine import Simulator

Number = Union[int, float]

#: Characters that make a name pattern more than a name (``fnmatch`` syntax).
_WILDCARDS = frozenset("*?[")

#: Default cadence (simulated seconds) of the periodic probe sampler.
DEFAULT_SAMPLE_INTERVAL = 0.1

#: Default per-series retention budget for probe-fed series (None = unbounded;
#: the registry default keeps even multi-thousand-second runs to a few
#: thousand samples per series via stride doubling).
DEFAULT_MAX_SAMPLES = 4096


class TimeSeries:
    """Timestamped samples of one quantity.

    Args:
        max_samples: Optional retention budget.  When the series reaches the
            budget it halves itself (keeping every other sample) and doubles
            the recording stride, so the memory stays within the budget while
            samples keep spanning the whole run.  ``None`` retains everything.
    """

    __slots__ = ("name", "unit", "description", "times", "values",
                 "max_samples", "_stride", "_skip")

    def __init__(self, name: str, unit: str = "", description: str = "",
                 max_samples: Optional[int] = None) -> None:
        if max_samples is not None and max_samples < 2:
            raise ValueError(f"max_samples must be at least 2, got {max_samples}")
        self.name = name
        self.unit = unit
        self.description = description
        self.times: List[float] = []
        self.values: List[float] = []
        self.max_samples = max_samples
        self._stride = 1
        self._skip = 0

    def record(self, time: float, value: Number) -> None:
        """Append a sample (subject to the decimation stride)."""
        if self._skip:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        self.times.append(time)
        self.values.append(float(value))
        if self.max_samples is not None and len(self.times) >= self.max_samples:
            self.times = self.times[::2]
            self.values = self.values[::2]
            self._stride *= 2

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last(self) -> Optional[float]:
        """Most recent sample value, or None for an empty series."""
        return self.values[-1] if self.values else None

    @property
    def last_time(self) -> Optional[float]:
        """Timestamp of the most recent sample, or None for an empty series."""
        return self.times[-1] if self.times else None

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable representation ``{unit, times, values}``."""
        return {"unit": self.unit, "times": list(self.times),
                "values": list(self.values)}


class MetricsRegistry:
    """Stats records, end-of-run values and time series for one scenario.

    Args:
        enabled: Whether the time-series plane (series recording + periodic
            probe sampling) is active.  Records and values work either way.
        max_series_samples: Retention budget handed to every
            :class:`TimeSeries` created through the registry (``None``
            retains every sample).
    """

    def __init__(self, enabled: bool = False,
                 max_series_samples: Optional[int] = DEFAULT_MAX_SAMPLES) -> None:
        self.enabled = enabled
        self.max_series_samples = max_series_samples
        self._records: Dict[str, StatsRecord] = {}
        self._values: Dict[str, Number] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._probes: List[Tuple[TimeSeries, Callable[[], float]]] = []
        self._sampling_started = False
        self.samples_taken = 0

    # ------------------------------------------------------------------
    # Scalars
    # ------------------------------------------------------------------
    def register(self, prefix: str, record: "StatsRecord") -> None:
        """Publish ``record``'s fields as ``<prefix>.<field>``.

        A record registered later under the same prefix replaces the earlier
        one.
        """
        self._records[prefix] = record

    def set(self, name: str, value: Number) -> None:
        """Set the end-of-run scalar ``name`` to ``value``."""
        self._values[name] = value

    def _fields(self) -> Iterator[Tuple[str, Number]]:
        for prefix, record in self._records.items():
            for field in record.fields:
                yield f"{prefix}.{field}", getattr(record, field)

    def _scalars(self) -> Iterator[Tuple[str, Number]]:
        yield from self._fields()
        yield from self._values.items()

    def snapshot(self) -> Dict[str, Number]:
        """Current value of every record field and end-of-run value, keyed by
        name (sorted).

        This is the one harvesting path the experiment harness uses.  The
        sorted names become the keys first and the values are written into
        them in place, so no list of (name, value) pairs is built beside the
        result (at city scale that list was the run's memory peak).  A value
        set under a record field's name keeps the larger of the two, the set
        one on a tie: what sorting the pairs by name and value gave.
        """
        snapshot: Dict[str, Any] = dict.fromkeys(
            sorted(name for name, _ in self._scalars()))
        snapshot.update(self._fields())
        for name, value in self._values.items():
            held = snapshot[name]
            if held is None or not held > value:
                snapshot[name] = value
        return snapshot

    def total(self, pattern: str) -> Number:
        """Sum of every scalar whose name matches ``pattern``.

        e.g. ``total("mac.node*.data_dropped_retry")`` is the network-wide
        retry-drop count.
        """
        return self.totals(pattern)[0]

    def totals(self, *patterns: str) -> List[Number]:
        """:meth:`total` of each pattern, in one pass over the records.

        A pattern whose last dotted part has no wildcard names one field: a
        record without that field is passed over, and only a record with it
        has its prefix matched, so a run's harvest costs a match per record
        holding the field rather than one per scalar.
        """
        sums: List[Number] = [0] * len(patterns)
        # Per pattern: (prefix pattern, field) if it names one field, else
        # (None, the whole pattern).
        plans = []
        for pattern in patterns:
            prefix_pattern, dot, field = pattern.rpartition(".")
            if dot and not _WILDCARDS.intersection(field):
                plans.append((prefix_pattern, field))
            else:
                plans.append((None, pattern))
        for prefix, record in self._records.items():
            fields = record.fields
            for k, (prefix_pattern, field) in enumerate(plans):
                if prefix_pattern is not None:
                    if field in fields and fnmatchcase(prefix, prefix_pattern):
                        sums[k] += getattr(record, field)
                    continue
                for name in fields:
                    if fnmatchcase(f"{prefix}.{name}", field):
                        sums[k] += getattr(record, name)
        for name, value in self._values.items():
            for k, pattern in enumerate(patterns):
                if fnmatchcase(name, pattern):
                    sums[k] += value
        return sums

    # ------------------------------------------------------------------
    # Time series, probes and periodic sampling
    # ------------------------------------------------------------------
    def timeseries(self, name: str, unit: str = "",
                   description: str = "") -> TimeSeries:
        """Get or create the :class:`TimeSeries` registered under ``name``."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(
                name, unit=unit, description=description,
                max_samples=self.max_series_samples)
        return series

    def add_probe(self, name: str, fn: Callable[[], float], unit: str = "",
                  description: str = "") -> Optional[TimeSeries]:
        """Register a callable sampled into a :class:`TimeSeries` every tick.

        Probes are the pull half of the metrics plane: quantities nobody
        *events* on (queue occupancy, cumulative energy) are read by the
        sampler at the configured cadence.  No-op (returns None) when the
        registry is disabled.
        """
        if not self.enabled:
            return None
        series = self.timeseries(name, unit=unit, description=description)
        self._probes.append((series, fn))
        return series

    def sample(self, now: float) -> None:
        """Record one sample of every probe at time ``now``."""
        for series, fn in self._probes:
            series.record(now, float(fn()))
        self.samples_taken += 1

    def start_sampling(self, sim: "Simulator",
                       interval: float = DEFAULT_SAMPLE_INTERVAL) -> None:
        """Begin periodic engine-driven probe sampling.

        Takes an immediate sample (the t≈0 baseline) and then one every
        ``interval`` simulated seconds.  Sampler callbacks only *read*
        component state, so interleaving them with protocol events cannot
        change simulation behaviour.  No-op when the registry is disabled,
        so a metrics-off run schedules no extra events at all.
        """
        if not self.enabled or self._sampling_started:
            return
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval!r}")
        self._sampling_started = True

        def tick() -> None:
            self.sample(sim.now)
            sim.schedule(interval, tick)

        self.sample(sim.now)
        sim.schedule(interval, tick)

    def timeseries_data(self, pattern: Optional[str] = None) -> Dict[str, Dict[str, object]]:
        """All (optionally filtered) time series as JSON-ready dicts."""
        return {
            name: series.as_dict()
            for name, series in sorted(self._series.items())
            if pattern is None or fnmatchcase(name, pattern)
        }


class NullMetricsRegistry(MetricsRegistry):
    """A registry that can never be enabled and retains nothing.

    Components constructed without an explicit registry share this instance:
    their records still count, but are invisible to snapshots, and
    :meth:`timeseries` hands back a fresh unregistered series.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False, max_series_samples=DEFAULT_MAX_SAMPLES)

    def register(self, prefix: str, record: "StatsRecord") -> None:
        return None

    def set(self, name: str, value: Number) -> None:
        return None

    def timeseries(self, name: str, unit: str = "",
                   description: str = "") -> TimeSeries:
        return TimeSeries(name, unit=unit, description=description,
                          max_samples=self.max_series_samples)

    def add_probe(self, name: str, fn: Callable[[], float], unit: str = "",
                  description: str = "") -> None:
        return None

    def start_sampling(self, sim: "Simulator",
                       interval: float = DEFAULT_SAMPLE_INTERVAL) -> None:
        return None

    def __setattr__(self, name: str, value: Any) -> None:
        # Keep `enabled` pinned to False so series guards stay dead code even
        # if a caller flips the flag on the shared NULL_METRICS.
        if name == "enabled" and value:
            return
        super().__setattr__(name, value)


#: Shared always-disabled registry; components built without an explicit
#: registry use this one so they never need a None check.
NULL_METRICS = NullMetricsRegistry()


class StatsRecord:
    """Base of the per-layer stats records.

    A subclass names its fields in ``__slots__``, a dict from each field to
    its docstring.  Every field starts at ``0``; the owning layer updates it
    in place (``stats.rts_tx += 1``).  The record registers itself once under
    ``prefix``, so the registry reads ``<prefix>.<field>`` straight off it.
    A subclass may add fields of its own; one without ``__slots__`` keeps
    further, unpublished state.

    Args:
        registry: Registry the record is published in; a stand-alone record
            (the default :data:`NULL_METRICS`) counts but is published
            nowhere.
        prefix: Dotted name prefix, e.g. ``"mac.node3"``.
    """

    __slots__ = ()

    #: Field names, base class first (set per subclass).
    fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.fields = tuple(field for klass in reversed(cls.__mro__)
                           for field in vars(klass).get("__slots__", ()))

    def __init__(self, registry: MetricsRegistry = NULL_METRICS,
                 prefix: str = "") -> None:
        for field in self.fields:
            setattr(self, field, 0)
        registry.register(prefix, self)
