#!/usr/bin/env python3
"""City-scale mesh: 1,000 or 10,000 mobile nodes at the paper's density.

Runs the ``city1k-*`` / ``city10k-*`` scenario presets — a random
metro-scale mesh at the paper's node density with ten NewReno flows, under
random-waypoint or Manhattan-grid (street-bound) mobility.  The channel's
grid spatial index plus lazy generation-stamped cache invalidation are what
make these population sizes tractable: delivery lists and the mobility link
diff are computed from 3x3 cell neighbourhoods and only rebuilt for nodes
whose neighbourhood actually changed.  The 10k presets additionally switch
AODV to expanding-ring search, so route discoveries stop flooding the full
metro diameter.

Run with::

    python examples/city_scale.py                      # 1k, random-waypoint
    python examples/city_scale.py --mobility manhattan
    python examples/city_scale.py --nodes 10000        # metro scale

Under ``REPRO_SMOKE=1`` (CI) the run is shortened but keeps the full
population, so the smoke lane genuinely exercises the index and the lazy
caches at the selected scale.  On Linux the last line is the process's peak
resident set, which CI holds to a ceiling on the 10k run.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from typing import Optional

from repro import format_table
from repro.experiments.scenarios import build_named_scenario
from repro.experiments.smoke import smoke_scaled

#: Preset name fragments by CLI flag value.
NODE_CHOICES = (1000, 10000)
MOBILITY_CHOICES = ("rwp", "manhattan")


def preset_name(nodes: int, mobility: str) -> str:
    """Map (nodes, mobility) to the registered preset name."""
    return f"city{nodes // 1000}k-{mobility}"


def run_preset(name: str, args: argparse.Namespace) -> None:
    """Build and run one city preset, printing flow and churn summaries."""
    started = time.perf_counter()
    scenario = build_named_scenario(
        name,
        packet_target=args.packets,
        max_sim_time=args.sim_time,
        seed=args.seed,
    )
    result = scenario.run()
    elapsed = time.perf_counter() - started

    print(f"\n=== {name}: {result.name} ({elapsed:.1f}s wall) ===")
    rows = [
        [flow.flow_id, flow.variant, round(flow.goodput_kbps, 1),
         flow.delivered_packets, flow.retransmissions]
        for flow in result.flows
    ]
    print(format_table(
        ["flow", "variant", "goodput kbit/s", "delivered", "retx"], rows))
    print(f"aggregate {result.aggregate_goodput_kbps:.1f} kbit/s, "
          f"fairness {result.fairness_index:.3f}")
    updates = int(result.metric_total("mobility.updates"))
    broken = int(result.metric_total("mobility.links_broken"))
    formed = int(result.metric_total("mobility.links_formed"))
    print(f"mobility: {updates} updates, {broken} links broken, "
          f"{formed} formed")


def peak_rss_mb() -> Optional[float]:
    """This interpreter's peak resident set in MB, or None off Linux.

    Read from ``VmHWM``, not ``ru_maxrss``: Linux carries the launching
    process's peak across exec, so ``ru_maxrss`` can report the launcher's.
    """
    if not sys.platform.startswith("linux"):
        return None
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\s+(\d+) kB", status.read()).group(1)) / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=1000,
                        choices=NODE_CHOICES,
                        help="mesh population (default: %(default)s)")
    parser.add_argument("--mobility", default="rwp",
                        choices=MOBILITY_CHOICES,
                        help="mobility model preset tag (default: %(default)s)")
    parser.add_argument("--packets", type=int, default=smoke_scaled(600, 25),
                        help="delivered packets across all flows")
    parser.add_argument("--sim-time", type=float,
                        default=smoke_scaled(120.0, 12.0),
                        help="hard wall on simulated seconds")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    run_preset(preset_name(args.nodes, args.mobility), args)
    peak = peak_rss_mb()
    if peak is not None:
        print(f"peak RSS {peak:.1f} MB")


if __name__ == "__main__":
    main()
