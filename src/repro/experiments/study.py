"""Declarative parameter studies with a parallel, cached executor.

The paper's whole evaluation is one large parameter sweep: transport variants
× bandwidths × topologies × hop counts × Vegas α.  This module expresses such
sweeps as *data* instead of bespoke nested loops:

* :class:`SweepSpec` describes a cartesian sweep — a topology family (from
  :mod:`repro.topology.registry`), axes of scenario/topology parameters and a
  number of seed replications.
* :class:`StudyRunner` executes every sweep point.  It is a thin façade over
  the :mod:`repro.experiments.exec` execution plane: the sweep is exploded
  into fingerprint-keyed work items on a
  :class:`~repro.experiments.exec.workqueue.WorkQueue`, drained by a
  registered :class:`~repro.experiments.exec.backends.ExecutorBackend`
  (``serial`` or ``process-pool``), checkpointed into a crash-safe
  :class:`~repro.experiments.exec.store.ResultStore` (``cache_dir``) and
  streamed into the result as items complete — so an interrupted study
  resumes from disk, re-executing only the missing items.
* :class:`StudyResult` aggregates the per-seed results into cross-seed
  confidence intervals and round-trips through JSON.

Run ``python -m repro.experiments.study --help`` for the command-line front
end (backend selection, live progress, ``--store``/``--resume``).

Quickstart::

    from repro.experiments.study import SweepSpec, run_study

    spec = SweepSpec(
        name="goodput-vs-hops",
        topology="chain",
        axes={"variant": ["vegas", "newreno"], "hops": [2, 4, 8]},
        base=ScenarioConfig(packet_target=250),
        replications=3,
    )
    study = run_study(spec, parallel=True)
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
single-replication study bit-identical to a direct ``run_scenario`` call with
the base config's seed.

Parallel execution requires every sweep point to be picklable and every
referenced transport/topology to be registered at import time of a module the
worker processes also import (the built-ins always are); dynamically
registered variants are available in serial runs regardless.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import itertools
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.core.io import atomic_write_text
from repro.core.statistics import ConfidenceInterval, confidence_interval
from repro.core.tracing import NULL_TRACER, Tracer
from repro.experiments.config import ScenarioConfig, resolve_variant
from repro.experiments.results import ScenarioResult
from repro.experiments.runner import run_scenario
from repro.experiments.workload import ScenarioEvent, ScenarioSpec, Workload
from repro.topology.base import Topology
from repro.topology.registry import build_topology, get_topology
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
    if isinstance(value, enum.Enum):
        return value.value
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
        variant_overrides: Per-variant config overrides (keyed by any variant
            spelling) applied when that variant is the point's variant —
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
            get_topology(self.topology)  # fail fast on unknown families
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
        for variant in self.variant_overrides:
            transport_key(variant)  # fail fast on unknown variants

    # ------------------------------------------------------------------
    # Sweep structure
    # ------------------------------------------------------------------
    @property
    def axis_names(self) -> Tuple[str, ...]:
        """Axis names in declaration order."""
        return tuple(self.axes)

    @property
    def config_axes(self) -> Tuple[str, ...]:
        """Axes that override :class:`ScenarioConfig` fields."""
        return tuple(a for a in self.axes if a in _CONFIG_FIELDS)

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

        Variant axis values are normalised (enum member for the built-ins,
        canonical registry name otherwise) so that point lookups and JSON
        round trips are spelling-independent.
        """
        names = self.axis_names
        combos = itertools.product(*(tuple(self.axes[a]) for a in names))
        points = []
        for index, combo in enumerate(combos):
            values = dict(zip(names, combo))
            if "variant" in values:
                values["variant"] = resolve_variant(values["variant"])
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
        return build_topology(self.topology, **self._topology_builder_params(values))

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
        """The :class:`Workload` of one sweep point (None = legacy flows)."""
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
        """Per-replication totals of the instruments matching ``pattern``.

        ``pattern`` is a shell-style wildcard over hierarchical instrument
        names (see :meth:`repro.experiments.results.ScenarioResult.metric_total`),
        so a sweep can aggregate *any* instrument the stack registers, e.g.
        ``point.metric_values("route.node*.rerrs_sent")``.
        """
        return [run.metric_total(pattern) for run in self.runs]

    def metric_interval(self, pattern: str) -> ConfidenceInterval:
        """Cross-seed confidence interval of the matched instrument total.

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
        values = dict(self.values)
        if "variant" in values:
            values["variant"] = transport_key(values["variant"])
        return {
            "values": values,
            "seeds": list(self.seeds),
            "runs": [run.to_dict() for run in self.runs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PointResult":
        """Rebuild from :meth:`to_dict` output (axis values must be
        JSON-native; the ``variant`` axis is restored to its enum member)."""
        values = dict(data["values"])
        if "variant" in values:
            values["variant"] = resolve_variant(values["variant"])
        return cls(
            values=values,
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

        A ``variant`` value may be given in any registered spelling (enum
        member, registry name, label); it is normalised before matching.

        Raises:
            KeyError: If no point matches.
        """
        if "variant" in axis_values:
            axis_values = dict(axis_values,
                               variant=resolve_variant(axis_values["variant"]))
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


def _uses_workload_plane(spec: SweepSpec) -> bool:
    """True when the sweep needs the ScenarioSpec path (workload/timeline).

    Legacy sweeps keep running through ``run_scenario(topology, config)``,
    whose compiled spec is behaviourally identical — this is purely about not
    constructing intermediate objects on the hot path.
    """
    return (spec.workload is not None or spec.workload_factory is not None
            or bool(spec.timeline))


def _run_sweep_task(payload: Tuple[SweepSpec, Mapping[str, object], int]) -> ScenarioResult:
    """Legacy process-pool entry point: run one (point, seed) scenario.

    Kept for pickle-by-reference compatibility; the execution plane's
    equivalent is :func:`repro.experiments.exec.backends.run_work_item`.
    """
    spec, values, seed = payload
    if _uses_workload_plane(spec):
        return run_scenario(spec.scenario_for(values, seed))
    return run_scenario(spec.topology_for(values), spec.config_for(values, seed))


class StudyRunner:
    """Executes :class:`SweepSpec` sweeps — a façade over the execution plane.

    The heavy lifting lives in :mod:`repro.experiments.exec`: the sweep is
    exploded into idempotent, fingerprint-keyed work items, completed items
    are checkpointed into a crash-safe
    :class:`~repro.experiments.exec.store.ResultStore` at ``cache_dir``, and
    a registered executor backend drains the queue.  Identical
    configurations are therefore never simulated twice — across runners,
    processes and sessions — and a study interrupted at any point resumes
    from ``cache_dir``, re-executing only the missing items.

    Args:
        max_workers: Process-pool size (default: ``os.cpu_count()``).
        cache_dir: Directory of the per-item result store; ``None`` disables
            checkpointing (and resume).
        tracer: Tracer passed to serially executed scenarios.  Worker
            processes cannot share a tracer object, so pool runs trace
            into :data:`~repro.core.tracing.NULL_TRACER`; run serially when
            traces matter.
        backend: Executor backend name (see
            :func:`repro.experiments.exec.backends.backend_names`) forced
            for every run; ``None`` lets ``run``'s ``parallel`` argument and
            the auto heuristic decide.
        progress: Optional callback receiving a
            :class:`~repro.experiments.exec.aggregate.ProgressSnapshot`
            after every work-item transition.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        tracer: Tracer = NULL_TRACER,
        backend: Optional[str] = None,
        progress: Optional[Callable[..., None]] = None,
    ) -> None:
        self.max_workers = max_workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.tracer = tracer
        self.backend = backend
        self.progress = progress

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec, parallel: Optional[bool] = None) -> StudyResult:
        """Run every (point, seed) combination of ``spec``.

        Args:
            spec: The sweep to execute.
            parallel: ``True`` forces the ``process-pool`` backend,
                ``False`` forces ``serial``, ``None`` (default) picks the
                pool when more than one unfinished item exists and more
                than one worker is available.  Ignored when the runner was
                constructed with an explicit ``backend``.

        Returns:
            A :class:`StudyResult` with points in cartesian sweep order and
            replications in seed order — bit-identical whether it ran
            serial, pooled, fresh or resumed.

        Raises:
            StudyExecutionError: If any work item stayed FAILED after its
                retry budget (transient errors are retried with backoff; a
                :class:`~repro.core.errors.ConfigurationError` from a bad
                sweep point fails immediately, without retries).  The
                exception carries the failed items and a partial
                :class:`StudyResult`; with a ``cache_dir`` the completed
                items are checkpointed, so a later :meth:`run`/:meth:`resume`
                re-executes only the failures.  Note this wraps whatever the
                scenario originally raised — callers that previously caught
                the task's own exception type should catch
                :class:`~repro.experiments.exec.backends.StudyExecutionError`
                and inspect ``.failed[*].error``.
        """
        from repro.experiments.exec.backends import execute_study

        backend = self.backend
        if backend is None and parallel is not None:
            backend = "process-pool" if parallel else "serial"
        return execute_study(
            spec,
            backend=backend,
            max_workers=self.max_workers,
            store=self.cache_dir,
            tracer=self.tracer,
            progress=self.progress,
        )

    def resume(self, spec: SweepSpec, parallel: Optional[bool] = None) -> StudyResult:
        """Resume an interrupted run of ``spec`` from ``cache_dir``.

        Every run of a cache-backed runner resumes implicitly; this spelling
        exists to make intent explicit and to fail fast when there is no
        store to resume from.

        Raises:
            ConfigurationError: If the runner has no ``cache_dir``.
        """
        if self.cache_dir is None:
            raise ConfigurationError(
                "resume() needs a cache_dir holding the interrupted study's "
                "checkpointed items"
            )
        return self.run(spec, parallel=parallel)


class Study:
    """Convenience bundle of a :class:`SweepSpec` and a :class:`StudyRunner`.

    Either wrap an existing spec (``Study(spec)``) or build one in place::

        Study(topology="chain", axes={"hops": [2, 4, 8]}, replications=3).run()
    """

    def __init__(self, spec: Optional[SweepSpec] = None,
                 runner: Optional[StudyRunner] = None, **spec_kwargs: object) -> None:
        if spec is not None and spec_kwargs:
            raise ConfigurationError("pass either a SweepSpec or spec kwargs, not both")
        self.spec = spec if spec is not None else SweepSpec(**spec_kwargs)
        self.runner = runner or StudyRunner()

    def run(self, parallel: Optional[bool] = None) -> StudyResult:
        """Execute the study; see :meth:`StudyRunner.run`."""
        return self.runner.run(self.spec, parallel=parallel)


def run_study(
    spec: SweepSpec,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    tracer: Tracer = NULL_TRACER,
    backend: Optional[str] = None,
    progress: Optional[Callable[..., None]] = None,
) -> StudyResult:
    """One-call convenience wrapper around :class:`StudyRunner`."""
    runner = StudyRunner(max_workers=max_workers, cache_dir=cache_dir,
                         tracer=tracer, backend=backend, progress=progress)
    return runner.run(spec, parallel=parallel)


# ======================================================================
# Command-line front end
# ======================================================================
def _parse_axis_value(text: str) -> object:
    """Parse one ``--axis`` value: int, then float, then bare string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _parse_axis(argument: str) -> Tuple[str, List[object]]:
    """Parse one ``--axis KEY=V1,V2,...`` argument."""
    key, sep, values = argument.partition("=")
    if not sep or not key or not values:
        raise ConfigurationError(
            f"--axis expects KEY=V1,V2,... (got {argument!r})")
    return key, [_parse_axis_value(v) for v in values.split(",") if v]


def _progress_printer(stream) -> Callable[..., None]:
    """A progress callback rendering a live one-line status.

    Uses carriage-return rewrites on a TTY and prints only on count changes
    otherwise, so CI logs stay readable.
    """
    tty = hasattr(stream, "isatty") and stream.isatty()
    last = {"text": None}

    def show(snapshot) -> None:
        text = snapshot.describe()
        if text == last["text"]:
            return
        last["text"] = text
        if tty:
            print(f"\r{text}\x1b[K", end="", file=stream, flush=True)
        else:
            print(text, file=stream, flush=True)

    return show


def main(argv: Optional[List[str]] = None) -> int:
    """Run a parameter study from the command line, resumably.

    Examples::

        PYTHONPATH=src python -m repro.experiments.study --list-backends
        PYTHONPATH=src python -m repro.experiments.study \\
            --backend process-pool --store .study-store --packets 100
        # interrupted?  resume executes only the missing work items:
        PYTHONPATH=src python -m repro.experiments.study \\
            --backend process-pool --store .study-store --packets 100 --resume

    Exit codes: 0 success; 1 work items failed after retries (checkpointed
    progress is kept — fix the cause and ``--resume``); 2 configuration
    error (unknown backend/topology/variant); 3 simulated crash
    (``--fail-after`` test hook).
    """
    from repro.experiments.exec.backends import (
        SimulatedCrash,
        StudyExecutionError,
        executor_backends,
        get_backend,
    )
    from repro.experiments.smoke import smoke_scaled

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.study",
        description="Run a declarative parameter study through the resumable "
                    "execution plane (work queue + checkpointed result "
                    "store + pluggable executor backends).",
    )
    parser.add_argument("--list-backends", action="store_true",
                        help="list registered executor backends and exit")
    parser.add_argument("--backend", default=None,
                        help="executor backend (default: auto-select; "
                             "see --list-backends)")
    parser.add_argument("--topology", default="chain",
                        help="topology family for every point "
                             "(default: %(default)s)")
    parser.add_argument("--variants", nargs="+", default=["vegas", "newreno"],
                        help="transport-variant axis values")
    parser.add_argument("--hops", type=int, nargs="+", default=None,
                        help="chain hop-count axis values "
                             "(default: 2 4, smoke: 2 3)")
    parser.add_argument("--axis", action="append", default=[],
                        metavar="KEY=V1,V2",
                        help="extra sweep axis (repeatable); values are "
                             "parsed as int, float, then string")
    parser.add_argument("--packets", type=int,
                        default=smoke_scaled(250, 30),
                        help="delivered packets per run "
                             "(default: %(default)s)")
    parser.add_argument("--replications", type=int,
                        default=smoke_scaled(3, 2),
                        help="independent seeds per sweep point "
                             "(default: %(default)s)")
    parser.add_argument("--bandwidth", type=float, default=2.0,
                        help="link bandwidth in Mbit/s (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed of replication 0")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="process-pool size bound")
    parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="checkpointed result-store directory (enables "
                             "crash-resume)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted study from --store "
                             "(fails fast when the store does not exist)")
    parser.add_argument("--fail-after", type=int, default=None, metavar="K",
                        help="testing hook: simulate a crash (exit 3) after "
                             "K completed items; completed items stay "
                             "checkpointed in --store")
    parser.add_argument("--save", type=Path, default=None, metavar="PATH",
                        help="write the final StudyResult as JSON to PATH")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live progress line")
    args = parser.parse_args(argv)

    if args.list_backends:
        backends = executor_backends()
        width = max(len(b.name) for b in backends)
        for backend in backends:
            print(f"{backend.name:<{width}}  {backend.description}")
        return 0

    try:
        if args.backend is not None:
            get_backend(args.backend)  # fail fast: exit 2 + suggestions
        if args.resume and args.store is None:
            raise ConfigurationError("--resume requires --store DIR")
        if args.resume and not args.store.is_dir():
            raise ConfigurationError(
                f"nothing to resume: store directory {args.store} does not "
                "exist (run once with --store to create it)")
        axes: Dict[str, Sequence[object]] = {"variant": args.variants}
        if args.hops is not None:
            axes["hops"] = args.hops
        elif args.topology == "chain":
            axes["hops"] = smoke_scaled([2, 4], [2, 3])
        for axis_arg in args.axis:
            key, values = _parse_axis(axis_arg)
            axes[key] = values
        spec = SweepSpec(
            name="cli-study",
            topology=args.topology,
            axes=axes,
            base=ScenarioConfig(bandwidth_mbps=args.bandwidth,
                                packet_target=args.packets),
            replications=args.replications,
            base_seed=args.seed,
        )
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2

    from repro.experiments.exec.backends import execute_study

    progress = None if args.quiet else _progress_printer(sys.stdout)
    started = time.perf_counter()
    try:
        study = execute_study(
            spec,
            backend=args.backend,
            max_workers=args.max_workers,
            store=args.store,
            progress=progress,
            fail_after=args.fail_after,
        )
    except SimulatedCrash as crash:
        if progress is not None:
            print()
        print(f"{crash}", file=sys.stderr)
        return 3
    except StudyExecutionError as exc:
        if progress is not None:
            print()
        print(f"study failed: {exc}", file=sys.stderr)
        print(f"({len(exc.partial.points)} point(s) with completed "
              "replications are checkpointed; fix the cause and --resume)",
              file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    if progress is not None:
        print()

    from repro.experiments.results import format_table

    rows = []
    for point in study.points:
        interval = point.goodput_interval
        label = ", ".join(
            f"{k}={getattr(v, 'value', v)}" for k, v in point.values.items())
        rows.append([label, interval.mean / 1000.0,
                     interval.half_width / 1000.0])
    print(format_table(["point", "goodput [kbit/s]", "± 95% CI"], rows))
    print(f"\n{len(study.points)} points × {spec.replications} seed(s) "
          f"in {elapsed:.1f} s"
          + (f" (store: {args.store})" if args.store else ""))

    if args.save is not None:
        path = study.save(args.save)
        print(f"study written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
