"""Hooks installed only in a traced child.

Both attribute by *file path* (``src/repro/<layer>/``), never by function
name, so they survive the refactors they are meant to measure:

* ``cProfile`` with ``builtins=False`` around ``Scenario.run()``,
  post-processed by :func:`layer_self_times` into self time per layer and by
  :func:`function_table` into calls / inclusive s / self s per (layer,
  function).  A function's inline time is its duration minus its callees',
  with C callees folded into their caller.
* :func:`count_schedules` — class-level wrappers on every registered
  kernel's ``schedule``/``schedule_at`` counting events by owning layer.
"""

from __future__ import annotations

import cProfile
import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import CodeType, ModuleType
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import repro
from repro.core.backends import kernel_backend_profiles
from repro.core.engine import Timer
from repro.experiments.runner import Scenario
from repro.net.packet import Packet
from repro.phy.channel import WirelessChannel

from benchmarks.ledger.registry import EVENT_OWNERS, LAYERS

#: Pseudo-layer of the ledger's own frames: measured, then left out of shares.
TRACER = "tracer"

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


@functools.lru_cache(maxsize=None)
def layer_of_path(filename: str) -> Optional[str]:
    """``"phy"`` for ``…/src/repro/phy/radio.py``; None outside ``src/repro/``."""
    if filename.startswith(_LEDGER_DIR):
        return TRACER
    if not filename.startswith(_REPRO_DIR):
        return None
    head, sep, _ = filename[len(_REPRO_DIR):].partition(os.sep)
    return head if sep else None


def layer_of_code(code: object) -> Optional[str]:
    return layer_of_path(code.co_filename) if isinstance(code, CodeType) else None


def layer_of_module(module: Optional[str]) -> str:
    """``"phy"`` for ``repro.phy.radio``; ``"other"`` outside ``repro``."""
    parts = (module or "").split(".")
    return parts[1] if len(parts) > 2 and parts[0] == "repro" else "other"


def owner_layer(callback: Callable) -> str:
    """The layer a scheduled callback belongs to.

    A bound method belongs to its instance's class; a ``Timer`` and a
    ``functools.partial`` are looked through to what they wrap; a plain
    function, lambda or closure belongs to the module that defined it.
    """
    while True:
        target = getattr(callback, "__self__", None)
        if isinstance(target, Timer):
            callback = target._callback
        elif isinstance(callback, functools.partial):
            callback = callback.func
        else:
            break
    if target is not None and not isinstance(target, ModuleType):
        return layer_of_module(type(target).__module__)
    return layer_of_module(getattr(callback, "__module__", None))


def kernel_classes() -> List[type]:
    """The class behind every registered kernel backend."""
    return sorted({type(profile.create()) for profile in kernel_backend_profiles()},
                  key=lambda cls: cls.__qualname__)


@contextmanager
def count_schedules() -> Iterator[Counter]:
    """Count ``schedule``/``schedule_at`` calls by owning layer while active."""
    counts: Counter = Counter()
    # owner_layer() per call would double the tracer's cost; a bound method's
    # owner is fixed by its class, or by the Timer instance it goes through.
    known: Dict[object, str] = {}

    def counting(original):
        @functools.wraps(original)
        def wrapper(self, when, callback, *args):
            target = getattr(callback, "__self__", None)
            key = target if type(target) is Timer else type(target)
            layer = known.get(key) if target is not None else None
            if layer is None:
                layer = owner_layer(callback)
                if target is not None:
                    known[key] = layer
            counts[layer] += 1
            return original(self, when, callback, *args)
        return wrapper

    originals = [(cls, name, cls.__dict__[name])
                 for cls in kernel_classes()
                 for name in ("schedule", "schedule_at") if name in cls.__dict__]
    for cls, name, original in originals:
        setattr(cls, name, counting(original))
    try:
        yield counts
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)


# ----------------------------------------------------------------------
# cProfile post-processing
# ----------------------------------------------------------------------
def layer_self_times(stats: Iterable) -> Tuple[Dict[str, float], float]:
    """``({layer: self seconds}, unattributed seconds)`` from ``getstats()``.

    A function under ``src/repro/<layer>/`` gives its inline time to that
    layer.  A foreign function (stdlib, numpy) gives its inline time to the
    layers that called it, in proportion to the time each caller's edge
    carries; foreign time no repro frame reaches is unattributed.
    """
    stats = list(stats)
    callers: Dict[object, Counter] = defaultdict(Counter)
    for entry in stats:
        for edge in entry.calls or ():
            if layer_of_code(edge.code) is None:
                callers[edge.code][entry.code] += edge.totaltime or 1e-12
    mixes: Dict[object, Dict[str, float]] = {}

    def mix(code: object) -> Dict[str, float]:
        layer = layer_of_code(code)
        if layer is not None:
            return {layer: 1.0}
        if code not in mixes:
            mixes[code] = {}                    # a foreign cycle contributes nothing
            weights: Counter = Counter()
            total = sum(callers[code].values())
            for caller, seconds in callers[code].items():
                for layer, weight in mix(caller).items():
                    weights[layer] += weight * seconds / total
            mixes[code] = dict(weights)
        return mixes[code]

    layers: Counter = Counter()
    unattributed = 0.0
    for entry in stats:
        weights = mix(entry.code)
        for layer, weight in weights.items():
            layers[layer] += entry.inlinetime * weight
        unattributed += entry.inlinetime * (1.0 - sum(weights.values()))
    return dict(layers), unattributed


def function_table(stats: Iterable, limit: int = 150) -> List[dict]:
    """The ``limit`` repro functions with the most self time."""
    rows = []
    for entry in stats:
        layer = layer_of_code(entry.code)
        if layer in (None, TRACER):
            continue
        code = entry.code
        rows.append({
            "layer": layer,
            # co_qualname would read better but only exists from Python 3.11.
            "function": f"{code.co_filename[len(_REPRO_DIR):]}:"
                        f"{code.co_firstlineno}:{code.co_name}",
            "calls": entry.callcount,
            "inclusive_s": entry.totaltime,
            "self_s": entry.inlinetime,
        })
    rows.sort(key=lambda row: row["self_s"], reverse=True)
    return rows[:limit]


def calls_and_seconds(stats: Iterable, *functions: Callable) -> Tuple[int, float]:
    """Call count and inclusive seconds of the given functions, summed."""
    codes = {function.__code__ for function in functions}
    entries = [entry for entry in stats if entry.code in codes]
    return (sum(entry.callcount for entry in entries),
            sum(entry.totaltime for entry in entries))


def handler_calls_and_seconds(stats: Iterable, layer: str) -> Tuple[int, float]:
    """Calls and inclusive seconds of ``layer``'s event handlers: the edges
    from a kernel's ``run`` loop into a function of that layer."""
    run_codes = {cls.run.__code__ for cls in kernel_classes()}
    edges = [edge for entry in stats if entry.code in run_codes
             for edge in entry.calls or ()
             if layer_of_code(edge.code) == layer]
    return (sum(edge.callcount for edge in edges),
            sum(edge.totaltime for edge in edges))


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def run_traced(build: Callable[[], Scenario]):
    """Build and run a scenario under every instrument.

    Returns ``(scenario, result, timing, layers, detail)``: the traced
    per-layer metrics by name, and the per-function table and owner counts
    the child writes to ``out/trace_<workload>.json``.
    """
    build_profile = cProfile.Profile(builtins=False)
    run_profile = cProfile.Profile(builtins=False)
    with count_schedules() as schedules:
        build_started = time.perf_counter()
        build_profile.enable()
        try:
            scenario = build()
        finally:
            build_profile.disable()
        run_started = time.perf_counter()
        run_profile.enable()
        try:
            result = scenario.run()
        finally:
            run_profile.disable()
        wall = time.perf_counter() - run_started

    stats = run_profile.getstats()
    layer_s, unattributed = layer_self_times(stats)
    tracer_s = layer_s.pop(TRACER, 0.0)
    total = sum(layer_s.values()) + unattributed
    pkts = result.delivered_packets
    events = scenario.sim.events_processed
    scheduled = sum(schedules.values())
    per_pkt = lambda count: count / pkts if pkts else 0.0
    per_call_ms = lambda calls, seconds: 1e3 * seconds / calls if calls else 0.0
    build_layers, _ = layer_self_times(build_profile.getstats())
    kernel_runs = [cls.run for cls in kernel_classes()]

    layers = {f"{layer}.self_share": layer_s.get(layer, 0.0) / total for layer in LAYERS}
    layers.update({f"{owner}.events_per_pkt": per_pkt(schedules[owner])
                   for owner in EVENT_OWNERS})
    layers.update({
        "other.events_per_pkt": per_pkt(
            scheduled - sum(schedules[owner] for owner in EVENT_OWNERS)),
        "core.schedules_per_pkt": per_pkt(scheduled),
        "core.fired_share": events / scheduled if scheduled else 0.0,
        "core.handler_us_per_event": 1e6 * wall / events if events else 0.0,
        "phy.events_per_tx": (schedules["phy"] / result.mac_frames_sent
                              if result.mac_frames_sent else 0.0),
        "phy.set_positions_ms": per_call_ms(
            *calls_and_seconds(stats, WirelessChannel.set_positions)),
        "net.packet_copies_per_pkt": per_pkt(calls_and_seconds(stats, Packet.copy)[0]),
        "mobility.update_ms": per_call_ms(*handler_calls_and_seconds(stats, "mobility")),
        "topology.build_s": build_layers.get("topology", 0.0),
        "experiments.collect_s": (calls_and_seconds(stats, Scenario.run)[1]
                                  - calls_and_seconds(stats, *kernel_runs)[1]),
        "trace.unattributed_share": unattributed / total,
    })
    detail = {
        "layer_self_s": layer_s,
        "tracer_self_s": tracer_s,
        "unattributed_s": unattributed,
        "schedules_by_owner": dict(schedules),
        "functions": function_table(stats),
    }
    timing = {"build_s": run_started - build_started, "wall_s": wall}
    return scenario, result, timing, layers, detail
