"""Declarative parameter studies with a parallel, cached executor.

The paper's whole evaluation is one large parameter sweep: transport variants
× bandwidths × topologies × hop counts × Vegas α.  This module expresses such
sweeps as *data* instead of bespoke nested loops:

* :class:`SweepSpec` describes a cartesian sweep — a topology family (from
  :mod:`repro.topology.registry`), axes of scenario/topology parameters and a
  number of seed replications.
* :func:`run_study` runs every (point, seed) item of a sweep through
  :mod:`repro.experiments.exec`: in-process or on a process pool, with
  retries, and checkpointed into a crash-safe
  :class:`~repro.experiments.exec.ResultStore` (``store=``), so an
  interrupted study resumes from disk, re-executing only the missing items.
* :class:`StudyResult` aggregates the per-seed results into cross-seed
  confidence intervals and round-trips through JSON.

``python -m repro study --help`` shows the command line (live progress,
``--store``/``--resume``).

Quickstart::

    from repro.experiments.study import SweepSpec, run_study

    spec = SweepSpec(
        name="goodput-vs-hops",
        topology="chain",
        axes={"variant": ["vegas", "newreno"], "hops": [2, 4, 8]},
        base=ScenarioConfig(packet_target=250),
        replications=3,
    )
    study = run_study(spec, store=".study-store")
    for point in study.points:
        print(point.values, point.goodput_interval)

Axis keys that are :class:`~repro.experiments.config.ScenarioConfig` fields
override the base config; keys prefixed ``workload.`` are stripped and passed
to the sweep's ``workload_factory`` (so traffic mixes are sweepable, e.g.
``axes={"workload.secondary_flows": [0, 1, 2]}`` with
:func:`~repro.experiments.workload.mixed_transport_workload` sweeps the
number of Vegas flows competing with NewReno); every other key is passed to
the topology builder (so ``hops`` reaches
:func:`repro.topology.chain.chain_topology`).  Seeds are never an axis:
replication ``r`` runs with ``base_seed + r``, which makes a
single-replication study bit-identical to ``Scenario(spec).run()`` on the
point's spec with the base config's seed.

Parallel execution requires every sweep point to be picklable and every
referenced transport/topology to be registered at import time of a module the
worker processes also import (the built-ins always are); dynamically
registered variants are available in in-process runs regardless.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import itertools
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.core.io import atomic_write_text
from repro.core.statistics import ConfidenceInterval, confidence_interval
from repro.core.tracing import NULL_TRACER, Tracer
from repro.experiments.config import ScenarioConfig
from repro.experiments.exec import (
    DEFAULT_ITEM_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    ProgressSnapshot,
    ResultStore,
    StudyExecutionError,
    WorkItem,
    WorkTask,
    execute,
    run_work_item,
)
from repro.experiments.results import ScenarioResult
from repro.experiments.workload import ScenarioEvent, ScenarioSpec, Workload
from repro.topology.base import Topology
from repro.topology.registry import TOPOLOGIES
from repro.transport.registry import transport_key

#: ScenarioConfig field names; axis keys in this set override the config.
#: Axis keys prefixed ``workload.`` are passed to the sweep's workload
#: factory; every other axis key is passed to the topology builder.
_CONFIG_FIELDS = frozenset(ScenarioConfig.__dataclass_fields__)

#: Axis-key prefix marking workload-factory parameters.
_WORKLOAD_AXIS_PREFIX = "workload."

#: Factory building a :class:`Workload` for one sweep point; must be a
#: module-level callable (pickled by reference for the process pool).  It
#: receives the point's topology plus the stripped ``workload.*`` axis values.
WorkloadFactory = Callable[..., Workload]

#: Bumped on cache *format* changes; cached-result *content* staleness is
#: handled by :func:`_code_fingerprint`, which keys every cache entry to the
#: package sources so that simulation-code edits miss the cache automatically.
_CACHE_SCHEMA = 1

#: Version stamped into :meth:`StudyResult.save` files and checked by
#: :meth:`StudyResult.load`; bump on incompatible result-format changes.
_STUDY_RESULT_SCHEMA = 1

_CODE_FINGERPRINT: Optional[str] = None


def _code_fingerprint() -> str:
    """Digest of every ``repro`` source file (computed once per process)."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        digest = hashlib.sha256()
        root = Path(repro.__file__).resolve().parent
        for source in sorted(root.rglob("*.py")):
            digest.update(str(source.relative_to(root)).encode("utf-8"))
            digest.update(source.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def _jsonable(value: object) -> object:
    """Recursively convert a value into JSON-serializable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: an index plus its axis values."""

    index: int
    values: Mapping[str, object]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative cartesian parameter sweep.

    Attributes:
        name: Study name (used in result files and reports).
        topology: Topology family name (resolved through
            :mod:`repro.topology.registry`) or a prebuilt
            :class:`~repro.topology.base.Topology` shared by every point
            (e.g. one fixed random placement, as in the paper's Section
            4.4.2).
        topology_params: Builder parameters common to every point.
        axes: Ordered mapping from axis name to the values it sweeps.
            Config-field axes override ``base``; axes prefixed ``workload.``
            are stripped and passed to ``workload_factory``; all other axes
            are topology builder parameters.  ``seed`` may not be an axis —
            use ``replications``.
        base: Baseline :class:`ScenarioConfig` every point starts from.
        variant_overrides: Per-variant config overrides (keyed by variant
            name) applied when that variant is the point's variant —
            e.g. ``{"newreno-optwin": {"newreno_max_cwnd": 3.0}}``.  Axis
            values take precedence over these.
        workload: Fixed per-flow :class:`~repro.experiments.workload.Workload`
            shared by every point (its flows must match whatever topology the
            points build).  Mutually exclusive with ``workload_factory``.
        workload_factory: Module-level callable
            ``factory(topology, **workload_params)`` building each point's
            workload, e.g.
            :func:`~repro.experiments.workload.mixed_transport_workload`;
            required when ``workload.*`` axes are swept.
        workload_params: Factory parameters common to every point.
        timeline: :class:`~repro.experiments.workload.ScenarioEvent` timeline
            applied to every point's scenario.
        replications: Independent seeds per sweep point.
        base_seed: Seed of replication 0 (defaults to ``base.seed``);
            replication ``r`` uses ``base_seed + r``.
    """

    name: str = "study"
    topology: Union[str, Topology] = "chain"
    topology_params: Mapping[str, object] = field(default_factory=dict)
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    variant_overrides: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    workload: Optional[Workload] = None
    workload_factory: Optional[WorkloadFactory] = None
    workload_params: Mapping[str, object] = field(default_factory=dict)
    timeline: Tuple[ScenarioEvent, ...] = ()
    replications: int = 1
    base_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ConfigurationError("replications must be at least 1")
        for axis, values in self.axes.items():
            if axis == "seed":
                raise ConfigurationError(
                    "'seed' may not be an axis; use replications/base_seed"
                )
            if not list(values):
                raise ConfigurationError(f"axis {axis!r} has no values")
        if isinstance(self.topology, str):
            # Fail fast on unknown families and on parameters the family's
            # builder does not take, rather than on every item at run time.
            builder = TOPOLOGIES.get(self.topology).builder
            try:
                inspect.signature(builder).bind_partial(**dict.fromkeys(
                    [*self.topology_params, *self.topology_axes]))
            except TypeError as exc:
                raise ConfigurationError(
                    f"topology {self.topology!r}: {exc}") from None
        elif self.topology_axes:
            raise ConfigurationError(
                "topology axes "
                f"{sorted(self.topology_axes)} require a topology family name, "
                "not a prebuilt Topology"
            )
        if self.workload is not None and self.workload_factory is not None:
            raise ConfigurationError(
                "pass either a fixed workload or a workload_factory, not both"
            )
        if self.workload_axes and self.workload_factory is None:
            raise ConfigurationError(
                f"workload axes {sorted(self.workload_axes)} require a "
                "workload_factory"
            )
        if (self.workload_params and self.workload_factory is None):
            raise ConfigurationError("workload_params require a workload_factory")
        object.__setattr__(self, "timeline", tuple(self.timeline))
        for variant in [*self.variant_overrides, *self.axes.get("variant", ())]:
            transport_key(variant)  # fail fast on unknown variants
        # Build each point's spec once, so a point no run could serve (an
        # AODV flow that would have to cross a wired plane, say) is refused
        # here rather than by every item at run time.
        first_seed = self.seeds()[0]
        for point in self.points():
            self.scenario_for(point.values, first_seed)

    # ------------------------------------------------------------------
    # Sweep structure
    # ------------------------------------------------------------------
    @property
    def axis_names(self) -> Tuple[str, ...]:
        """Axis names in declaration order."""
        return tuple(self.axes)

    @property
    def workload_axes(self) -> Tuple[str, ...]:
        """Axes passed (prefix-stripped) to the workload factory."""
        return tuple(a for a in self.axes if a.startswith(_WORKLOAD_AXIS_PREFIX))

    @property
    def topology_axes(self) -> Tuple[str, ...]:
        """Axes passed to the topology builder."""
        return tuple(a for a in self.axes
                     if a not in _CONFIG_FIELDS
                     and not a.startswith(_WORKLOAD_AXIS_PREFIX))

    def points(self) -> List[SweepPoint]:
        """All sweep points, in cartesian order (last axis fastest).

        Variant axis values are normalised to their registry keys so that
        point lookups and JSON round trips are spelling-independent.
        """
        names = self.axis_names
        combos = itertools.product(*(tuple(self.axes[a]) for a in names))
        points = []
        for index, combo in enumerate(combos):
            values = dict(zip(names, combo))
            if "variant" in values:
                values["variant"] = transport_key(values["variant"])
            points.append(SweepPoint(index=index, values=values))
        return points

    def seeds(self) -> List[int]:
        """The replication seeds: ``base_seed + r`` for each replication."""
        first = self.base.seed if self.base_seed is None else self.base_seed
        return [first + r for r in range(self.replications)]

    # ------------------------------------------------------------------
    # Point materialization
    # ------------------------------------------------------------------
    def config_for(self, values: Mapping[str, object], seed: int) -> ScenarioConfig:
        """The :class:`ScenarioConfig` of one sweep point and seed."""
        overrides: Dict[str, object] = {}
        variant = values.get("variant", self.base.variant)
        for key, extra in self.variant_overrides.items():
            if transport_key(key) == transport_key(variant):
                overrides.update(extra)
        overrides.update(
            {k: v for k, v in values.items() if k in _CONFIG_FIELDS}
        )
        overrides["seed"] = seed
        return replace(self.base, **overrides)

    def _topology_builder_params(self, values: Mapping[str, object]) -> Dict[str, object]:
        params = dict(self.topology_params)
        params.update({k: v for k, v in values.items()
                       if k not in _CONFIG_FIELDS
                       and not k.startswith(_WORKLOAD_AXIS_PREFIX)})
        return params

    def topology_for(self, values: Mapping[str, object]) -> Topology:
        """The :class:`Topology` of one sweep point."""
        if not isinstance(self.topology, str):
            return self.topology
        return TOPOLOGIES.get(self.topology).build(
            **self._topology_builder_params(values))

    def workload_params_for(self, values: Mapping[str, object]) -> Dict[str, object]:
        """The (prefix-stripped) workload-factory parameters of one point."""
        params = dict(self.workload_params)
        params.update({
            key[len(_WORKLOAD_AXIS_PREFIX):]: value
            for key, value in values.items()
            if key.startswith(_WORKLOAD_AXIS_PREFIX)
        })
        return params

    def workload_for(self, values: Mapping[str, object],
                     topology: Topology) -> Optional[Workload]:
        """The :class:`Workload` of one sweep point (``None`` = the
        topology's own flows)."""
        if self.workload_factory is not None:
            return self.workload_factory(topology, **self.workload_params_for(values))
        return self.workload

    def scenario_for(self, values: Mapping[str, object], seed: int) -> ScenarioSpec:
        """The complete :class:`ScenarioSpec` of one (point, seed) run."""
        topology = self.topology_for(values)
        return ScenarioSpec(
            topology=topology,
            workload=self.workload_for(values, topology),
            config=self.config_for(values, seed),
            timeline=self.timeline,
        )

    def fingerprint(self, values: Mapping[str, object], seed: int) -> str:
        """Stable cache key of one (point, seed) scenario run.

        Hashes the full scenario configuration, the topology description, the
        seed and a digest of the package sources, so any parameter or
        simulation-code change misses the cache instead of returning stale
        results.
        """
        if isinstance(self.topology, str):
            topo = {"family": self.topology,
                    "params": _jsonable(self._topology_builder_params(values))}
        else:
            topo = {"instance": _jsonable(self.topology)}
        payload = {
            "schema": _CACHE_SCHEMA,
            "code": _code_fingerprint(),
            "topology": topo,
            "config": _jsonable(self.config_for(values, seed)),
            "seed": seed,
        }
        # Workload/timeline sections are only added when used, so legacy
        # sweeps keep hitting their previously cached entries.
        if self.workload_factory is not None:
            payload["workload"] = {
                "factory": f"{self.workload_factory.__module__}."
                           f"{getattr(self.workload_factory, '__qualname__', repr(self.workload_factory))}",
                "params": _jsonable(self.workload_params_for(values)),
            }
        elif self.workload is not None:
            payload["workload"] = {"flows": _jsonable(self.workload)}
        if self.timeline:
            payload["timeline"] = _jsonable(self.timeline)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class PointResult:
    """All replications of one sweep point.

    Attributes:
        values: The point's axis values.
        seeds: Replication seeds, aligned with ``runs``.
        runs: One :class:`ScenarioResult` per replication seed.
    """

    values: Dict[str, object]
    seeds: List[int]
    runs: List[ScenarioResult]

    @property
    def run(self) -> ScenarioResult:
        """The first replication (the whole run for single-seed studies)."""
        return self.runs[0]

    @property
    def goodput_interval(self) -> ConfidenceInterval:
        """Cross-seed confidence interval of the aggregate goodput (bit/s)."""
        return confidence_interval([r.aggregate_goodput_bps for r in self.runs])

    # ------------------------------------------------------------------
    # Metric selection
    # ------------------------------------------------------------------
    def metric_values(self, pattern: str) -> List[float]:
        """Per-replication totals of the metrics matching ``pattern``.

        ``pattern`` is a shell-style wildcard over hierarchical metric
        names (see :meth:`repro.experiments.results.ScenarioResult.metric_total`),
        so a sweep can aggregate *any* scalar the stack records, e.g.
        ``point.metric_values("route.node*.rerrs_sent")``.
        """
        return [run.metric_total(pattern) for run in self.runs]

    def metric_interval(self, pattern: str) -> ConfidenceInterval:
        """Cross-seed confidence interval of the matched metric total.

        Composes with :meth:`StudyResult.nested` for whole-study tables::

            study.nested("variant", "hops",
                         leaf=lambda p: p.metric_interval(
                             "mac.node*.data_dropped_retry").mean)
        """
        return confidence_interval(self.metric_values(pattern))

    @property
    def mean_goodput_bps(self) -> float:
        """Mean aggregate goodput over replications (bit/s)."""
        return self.goodput_interval.mean

    @property
    def mean_goodput_kbps(self) -> float:
        """Mean aggregate goodput over replications (kbit/s)."""
        return self.mean_goodput_bps / 1000.0

    def to_dict(self) -> dict:
        """JSON-serializable representation (see :meth:`from_dict`)."""
        return {
            "values": dict(self.values),
            "seeds": list(self.seeds),
            "runs": [run.to_dict() for run in self.runs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PointResult":
        """Rebuild from :meth:`to_dict` output (axis values must be
        JSON-native)."""
        return cls(
            values=dict(data["values"]),
            seeds=list(data["seeds"]),
            runs=[ScenarioResult.from_dict(r) for r in data["runs"]],
        )


@dataclass
class StudyResult:
    """The outcome of running a :class:`SweepSpec`."""

    name: str
    axis_names: Tuple[str, ...]
    replications: int
    points: List[PointResult]

    def point(self, **axis_values: object) -> PointResult:
        """The point whose axis values match ``axis_values`` exactly.

        A ``variant`` value is normalised to its registry key (lookup is
        case-insensitive) before matching.

        Raises:
            KeyError: If no point matches.
        """
        if "variant" in axis_values:
            axis_values = dict(axis_values,
                               variant=transport_key(axis_values["variant"]))
        for point in self.points:
            if all(point.values.get(k) == v for k, v in axis_values.items()):
                return point
        raise KeyError(f"no sweep point matching {axis_values!r} in {self.name}")

    def nested(self, *axis_names: str, leaf=None) -> dict:
        """Reshape the flat point list into nested dicts keyed by axes.

        Args:
            *axis_names: Axes to nest by, outermost first (defaults to the
                study's axis order).
            leaf: Optional transform of the innermost :class:`PointResult`
                (e.g. ``lambda p: p.run`` for the raw first-replication
                :class:`ScenarioResult`).

        Returns:
            ``{axis0_value: {axis1_value: ... leaf(point)}}``.
        """
        names = axis_names or self.axis_names
        root: dict = {}
        for point in self.points:
            cursor = root
            for name in names[:-1]:
                cursor = cursor.setdefault(point.values[name], {})
            cursor[point.values[names[-1]]] = leaf(point) if leaf else point
        return root

    def to_dict(self) -> dict:
        """JSON-serializable representation (see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "axis_names": list(self.axis_names),
            "replications": self.replications,
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StudyResult":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            axis_names=tuple(data["axis_names"]),
            replications=data["replications"],
            points=[PointResult.from_dict(p) for p in data["points"]],
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Atomically write the study result as JSON; returns the path.

        The file is published via write-temp-then-rename, so a process
        killed mid-save can never leave a truncated JSON behind, and it
        carries a ``schema`` version :meth:`load` checks before decoding.
        """
        payload = dict(self.to_dict(), schema=_STUDY_RESULT_SCHEMA)
        return atomic_write_text(
            path, json.dumps(payload, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StudyResult":
        """Read a study result previously written with :meth:`save`.

        Raises:
            ConfigurationError: When the file is not valid JSON or was
                written by an incompatible schema version — a clear,
                actionable error instead of an arbitrary decode failure
                deep inside :meth:`from_dict`.
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            raise ConfigurationError(
                f"study file {path} is not valid JSON ({exc}); it was "
                "probably written by a crashed pre-atomic-save run — delete "
                "it and re-run the study"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"study file {path} is not a JSON object")
        # Files from before the schema field are version-1 by construction.
        schema = data.get("schema", _STUDY_RESULT_SCHEMA)
        if schema != _STUDY_RESULT_SCHEMA:
            raise ConfigurationError(
                f"study file {path} has schema version {schema!r}; this "
                f"build reads version {_STUDY_RESULT_SCHEMA} — regenerate "
                "the study or load it with a matching version"
            )
        return cls.from_dict(data)


def run_study(
    spec: SweepSpec,
    max_workers: Optional[int] = None,
    store: Optional[Union[str, Path, ResultStore]] = None,
    tracer: Tracer = NULL_TRACER,
    progress: Optional[Callable[[ProgressSnapshot], None]] = None,
    item_timeout: float = DEFAULT_ITEM_TIMEOUT,
    max_retries: int = DEFAULT_MAX_RETRIES,
    task: WorkTask = run_work_item,
    fail_after: Optional[int] = None,
) -> StudyResult:
    """Run every (point, seed) combination of ``spec``.

    Each combination is one fingerprint-keyed work item.  Items already in
    the ``store`` are resumed from it; the rest run in this process when
    ``tracer`` is enabled, when one item is left or when ``max_workers`` is
    1, and on a process pool otherwise.  With a ``store``, completed items
    are checkpointed, so identical configurations are never simulated twice
    — across calls, processes and sessions — and an interrupted study
    re-executes only the missing items.

    Args:
        spec: The sweep to execute.
        max_workers: Process-pool size, at least 1 (default:
            ``os.cpu_count()``); 1 runs every item in this process.
        store: A :class:`~repro.experiments.exec.ResultStore` or its
            directory; ``None`` keeps everything in memory (no resume).
        tracer: Tracer handed to every scenario.  Worker processes cannot
            share a tracer, so an enabled one runs the study in-process.
        progress: Optional callback receiving a
            :class:`~repro.experiments.exec.ProgressSnapshot` after every
            item completion or failed attempt.
        item_timeout: Seconds a pool attempt may run before it counts as a
            failed attempt.
        max_retries: Retry budget per item beyond the first attempt.  Only
            transient failures consume it.
        task: The per-item callable (test seam; defaults to
            :func:`~repro.experiments.exec.run_work_item`).
        fail_after: Test/CI hook — simulate a crash (raise
            :class:`~repro.experiments.exec.SimulatedCrash`) after this many
            items completed in this run; they are checkpointed.

    Returns:
        A :class:`StudyResult` with points in cartesian sweep order and
        replications in seed order — bit-identical whether it ran
        in-process, pooled, fresh or resumed.

    Raises:
        ConfigurationError: If ``max_workers`` < 1, ``item_timeout`` <= 0
            or ``max_retries`` < 0.
        StudyExecutionError: If any work item failed after its retry budget
            (transient errors are retried with backoff; a
            :class:`~repro.core.errors.ConfigurationError` from a bad sweep
            point fails immediately, without retries).  The exception
            carries the failed items and a partial :class:`StudyResult`;
            with a ``store`` the completed items are checkpointed, so a
            later run re-executes only the failures.  It wraps whatever the
            scenario raised: inspect ``.failed[*].error`` for the cause.
    """
    workers = (os.cpu_count() or 1) if max_workers is None else max_workers
    if workers < 1:
        raise ConfigurationError(f"max_workers must be at least 1 (got {workers})")
    if item_timeout <= 0:
        raise ConfigurationError("item_timeout must be positive")
    if max_retries < 0:
        raise ConfigurationError("max_retries must be non-negative")
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    points, seeds = spec.points(), spec.seeds()
    items = [
        WorkItem(key=spec.fingerprint(point.values, seed), point_index=point.index,
                 replication=rep, seed=seed, values=dict(point.values))
        for point in points
        for rep, seed in enumerate(seeds)
    ]
    results, failed = execute(
        spec, items, store=store, workers=workers, tracer=tracer,
        progress=progress, item_timeout=item_timeout, max_retries=max_retries,
        task=task, fail_after=fail_after)

    # Items are point-major, so position point * len(seeds) + rep; a point
    # keeps the replications that completed, in seed order.
    study = StudyResult(name=spec.name, axis_names=spec.axis_names,
                        replications=spec.replications, points=[])
    for point in points:
        done = [rep for rep in range(len(seeds))
                if point.index * len(seeds) + rep in results]
        if done:
            study.points.append(PointResult(
                values=dict(point.values),
                seeds=[seeds[rep] for rep in done],
                runs=[results[point.index * len(seeds) + rep] for rep in done]))
    if failed:
        raise StudyExecutionError(failed, study)
    return study
