"""Mobility benchmarks: the moving-node hot path, measured not guessed.

Mobile scenarios add two costs on top of a static run:

* ``position_churn`` (micro) — the channel-side cost in isolation: batch
  position updates (:meth:`~repro.phy.channel.WirelessChannel.set_positions`)
  each invalidating the per-sender delivery lists, followed by a broadcast
  per node that forces the delivery lists to be rebuilt from the new
  geometry.  This is exactly what every
  :class:`~repro.mobility.base.MobilityManager` update interval does to the
  channel, with the protocol stack stripped away.
* ``position_churn_50`` / ``_250`` / ``_1000`` / ``_10000`` (micro, scaling
  series) — the pure mobility-update path (batch ``set_positions`` plus a
  full ``neighbors_of`` sweep, i.e. what ``MobilityManager._update`` +
  ``_current_links`` pay per interval) at constant node density.  The
  larger entries carry ``cost_ratio_vs_50``, the per-round cost relative to
  the 50-node entry of the same design, which
  ``tools/check_perf_overhead.py`` guards: with the grid spatial index and
  lazy generation-stamped invalidation the ratio tracks the population
  ratio (20x for 1000 vs 50, 200x for 10000); the quadratic pre-index
  channel measured ~400x at 1000 nodes already.  The 10000-node entry runs
  in full-budget reports only (``--smoke`` skips it: one 10k warm-up alone
  outweighs the whole smoke budget).
* ``mobile_chain7`` / ``mobile_random50`` (macro, in
  :mod:`benchmarks.perf.scenario_bench`) — full mobile scenarios including
  MAC retry storms, RERRs and AODV re-discovery traffic.

Reported like the kernel microbenchmarks: ``events`` (here: scheduled signal
deliveries, or link queries for the scaling series), ``wall_time`` and
``events_per_sec``.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import Dict, Tuple

from repro.core.engine import Simulator
from repro.net.packet import Packet, reset_packet_ids
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import Position
from repro.phy.radio import Radio

from benchmarks.perf.timing import best_of

#: Default workload: a 50-node field jittered and re-broadcast per round.
DEFAULT_NODE_COUNT = 50
DEFAULT_ROUNDS = 200
#: Field dimensions (the stress-benchmark density) and per-round jitter (m).
FIELD = (1300.0, 800.0)
JITTER = 7.5

#: The scaling series: population sizes measured with constant node density
#: (the field grows with sqrt(N), so per-node neighbourhoods stay comparable).
SCALING_NODE_COUNTS = (50, 250, 1000)
#: Full-budget series: adds the metro-scale population whose setup cost is
#: too heavy for the CI smoke lane.
SCALING_NODE_COUNTS_FULL = SCALING_NODE_COUNTS + (10_000,)
#: 50-node field for the scaling series.  Deliberately sparser than the
#: stress FIELD: the baseline field must be large relative to the 3x3
#: interference block (1650 m square), otherwise the 50-node neighbourhood
#: size is capped by the field boundary and the cost ratio overstates the
#: asymptotic growth.
SCALING_FIELD = (3900.0, 2400.0)
#: Best-of-k repeats per population (suppresses scheduler/allocator noise).
SCALING_REPEATS = 3
#: Seed for the uniform placements; offset per population so each field gets
#: an independent draw (a shared lattice placement gives each N a different
#: local structure and with it a different average degree).
SCALING_PLACEMENT_SEED = 1234


def _scaled_field(node_count: int,
                  base: Tuple[float, float] = FIELD) -> Tuple[float, float]:
    """``base`` grown to keep node density equal to the 50-node baseline."""
    factor = math.sqrt(node_count / DEFAULT_NODE_COUNT)
    return (base[0] * factor, base[1] * factor)


def bench_position_churn(node_count: int = DEFAULT_NODE_COUNT,
                         rounds: int = DEFAULT_ROUNDS) -> Dict[str, float]:
    """Alternate batch moves with full delivery-list rebuilds.

    Every round moves all nodes by a deterministic jitter (one cache
    invalidation thanks to ``set_positions``) and then broadcasts once from
    every node, so each round pays ``node_count`` delivery-list rebuilds over
    the fresh geometry — the worst case a mobility update interval can cause.

    Returns:
        Dict with ``events`` (scheduled deliveries), ``wall_time``,
        ``events_per_sec`` and the bookkeeping fields ``rounds`` and
        ``node_count``.
    """
    reset_packet_ids()
    field = _scaled_field(node_count)
    sim = Simulator()
    channel = WirelessChannel(sim)
    radios = []
    for node_id in range(node_count):
        radio = Radio(sim, node_id, channel)
        # Deterministic pseudo-grid placement with the stress density.
        position = Position(x=(node_id * 193.0) % field[0],
                            y=(node_id * 389.0) % field[1])
        channel.register(radio, position)
        radios.append(radio)
    packet = Packet(payload_size=1460)

    start = time.perf_counter()
    for round_index in range(1, rounds + 1):
        sign = 1.0 if round_index % 2 else -1.0
        channel.set_positions({
            radio.node_id: Position(
                x=channel.position_of(radio.node_id).x + sign * JITTER,
                y=channel.position_of(radio.node_id).y + sign * JITTER,
            )
            for radio in radios
        })
        for radio in radios:
            channel.broadcast(radio, packet, 1e-4)
        # Drop the scheduled signal events so the heap (and memory) stay flat;
        # the measured cost is geometry + cache rebuild + scheduling.
        sim.reset()
    wall = time.perf_counter() - start
    deliveries = channel.stats.deliveries_attempted
    return {
        "events": deliveries,
        "wall_time": wall,
        "events_per_sec": deliveries / wall if wall > 0 else 0.0,
        "rounds": rounds,
        "node_count": node_count,
    }


def bench_mobility_update(node_count: int,
                          rounds: int,
                          repeats: int = SCALING_REPEATS) -> Dict[str, float]:
    """Measure the per-interval mobility-update cost at a given population.

    Mirrors what ``MobilityManager._update`` pays per interval: one batch
    ``set_positions`` over every node followed by a full ``neighbors_of``
    sweep (the link diff).  No traffic, no event heap — the number under
    test is the channel's geometry/cache machinery alone.

    Nodes are placed uniformly at random (seeded) on a field scaled from
    ``SCALING_FIELD`` with ``sqrt(node_count / 50)``, so density — and with
    it the average neighbourhood size — is constant across the series.  One
    warm-up round builds the caches; the timed rounds then measure the
    steady state.  The best of ``repeats`` passes is reported through
    :func:`benchmarks.perf.timing.best_of`, so every entry records its
    run-to-run ``spread`` like the kernel benchmarks and >10% noisy churn
    numbers get flagged on stdout.  GC is disabled while timing, because a
    single collector pause at 1000+ nodes is the same order as a whole
    round.

    Returns:
        Best-of-``repeats`` dict with ``events`` (link queries:
        ``rounds * node_count``), ``wall_time`` (best pass),
        ``events_per_sec``, ``update_cost`` (wall seconds per round, best
        pass), ``spread`` and the bookkeeping fields ``rounds`` and
        ``node_count``.
    """
    field = _scaled_field(node_count, base=SCALING_FIELD)
    rng = random.Random(SCALING_PLACEMENT_SEED + node_count)
    sim = Simulator()
    channel = WirelessChannel(sim)
    for node_id in range(node_count):
        channel.register(Radio(sim, node_id, channel),
                         Position(x=rng.uniform(0.0, field[0]),
                                  y=rng.uniform(0.0, field[1])))
    node_ids = list(range(node_count))

    def churn_round(sign: float) -> None:
        channel.set_positions({
            node_id: Position(
                x=channel.position_of(node_id).x + sign,
                y=channel.position_of(node_id).y + sign,
            )
            for node_id in node_ids
        })
        for node_id in node_ids:
            channel.neighbors_of(node_id)

    def measure() -> Dict[str, float]:
        start = time.perf_counter()
        for round_index in range(1, rounds + 1):
            churn_round(JITTER if round_index % 2 else -JITTER)
        wall = time.perf_counter() - start
        queries = rounds * node_count
        return {
            "events": queries,
            "wall_time": wall,
            "events_per_sec": queries / wall if wall > 0 else 0.0,
            "update_cost": wall / rounds if rounds > 0 else 0.0,
            "rounds": rounds,
            "node_count": node_count,
        }

    churn_round(1.0)  # warm-up: build grid/cache steady state
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return best_of(measure, repeats)
    finally:
        if gc_was_enabled:
            gc.enable()


def run_mobility_benchmarks(
    rounds: int = DEFAULT_ROUNDS,
    node_counts: Tuple[int, ...] = SCALING_NODE_COUNTS,
) -> Dict[str, Dict[str, float]]:
    """Run the mobility microbenchmarks (no legacy twin: the batch-update
    API under test did not exist in the pre-optimisation kernel).

    Returns the historical full-broadcast ``position_churn`` entry plus the
    ``position_churn_<N>`` mobility-update scaling series over
    ``node_counts`` (the smoke lane uses :data:`SCALING_NODE_COUNTS`,
    full-budget reports :data:`SCALING_NODE_COUNTS_FULL`).  Entries above
    the 50-node baseline carry ``cost_ratio_vs_50`` — their per-round
    update cost relative to the 50-node entry — which
    ``tools/check_perf_overhead.py`` guards against quadratic regressions
    (O(N·k) predicts a ratio near the population ratio; O(N²) predicts its
    square).
    """
    results: Dict[str, Dict[str, float]] = {
        "position_churn": bench_position_churn(rounds=rounds),
    }
    baseline_cost = None
    for node_count in node_counts:
        # Larger populations run fewer rounds to keep the suite fast; the
        # reported cost is per round, so the ratio stays comparable.  The
        # floor of two rounds keeps the 10k entry from being a single-round
        # sample (timer noise would dominate a lone ~150 ms measurement).
        scaled_rounds = max(
            2, rounds * DEFAULT_NODE_COUNT // node_count)
        entry = bench_mobility_update(node_count, scaled_rounds)
        if node_count == DEFAULT_NODE_COUNT:
            baseline_cost = entry["update_cost"]
        elif baseline_cost:
            entry["cost_ratio_vs_50"] = entry["update_cost"] / baseline_cost
        results[f"position_churn_{node_count}"] = entry
    return results
