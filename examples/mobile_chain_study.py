#!/usr/bin/env python3
"""Mobility quickstart: goodput vs. node speed on a random-waypoint chain.

Two parts:

1. A single traced mobile run of the paper's 7-hop chain under
   random-waypoint movement, printing the route-break/repair timeline
   (``mobility/link_down`` → ``aodv/link_failure`` → ``aodv/rreq_send``)
   that static topologies can never produce.
2. A declarative Study sweeping ``mobility_speed`` × transport variant —
   mobility knobs are ordinary :class:`repro.ScenarioConfig` fields, so the
   Study API sweeps them like any other axis.

Run with::

    python examples/mobile_chain_study.py [--packets 150] [--speeds 1 5 20]
        [--variants vegas newreno] [--replications 2]
"""

from __future__ import annotations

import argparse
import time

from repro import (
    TRANSPORTS,
    ScenarioConfig,
    SweepSpec,
    build_named_scenario,
    format_table,
    run_study,
)
from repro.experiments.smoke import smoke_scaled
from repro.core.tracing import Tracer


def show_break_and_repair(packets: int) -> None:
    """Run one traced mobile chain and print the break/repair timeline."""
    tracer = Tracer(enabled=True)
    scenario = build_named_scenario(
        "chain7-rwp-vegas-2mbps", tracer=tracer,
        packet_target=packets, seed=3, max_sim_time=60.0,
        mobility_speed=20.0, mobility_pause=1.0,
    )
    result = scenario.run()

    print(f"single mobile run: {result.delivered_packets} packets in "
          f"{result.simulated_time:.0f} s simulated time")
    stats = scenario.mobility.stats
    print(f"  mobility: {stats.position_changes} moves over {stats.updates} "
          f"updates, {stats.links_broken} links broken, "
          f"{stats.links_formed} formed")
    timeline = [record for record in tracer
                if (record.layer, record.event) in (
                    ("mobility", "link_down"), ("mobility", "link_up"),
                    ("aodv", "link_failure"), ("aodv", "rreq_send"),
                    ("aodv", "rrep_send"))]
    print(f"  break/repair timeline ({len(timeline)} events, first 12):")
    for record in timeline[:12]:
        print(f"    {record}")


def sweep_speed(args: argparse.Namespace) -> None:
    """Sweep mobility speed × variant and print cross-seed goodput CIs."""
    spec = SweepSpec(
        name="mobile-chain-speed-study",
        topology="chain",
        topology_params={"hops": 7},
        axes={"variant": args.variants, "mobility_speed": args.speeds},
        base=ScenarioConfig(mobility="random-waypoint", mobility_pause=1.0,
                            packet_target=args.packets, max_sim_time=120.0),
        replications=args.replications,
    )
    started = time.perf_counter()
    study = run_study(spec, store=args.store or None)
    elapsed = time.perf_counter() - started

    rows = []
    for point in study.points:
        interval = point.goodput_interval
        rows.append([
            TRANSPORTS[point.values["variant"]].label,
            f"{point.values['mobility_speed']:g}",
            interval.mean / 1000.0,
            interval.half_width / 1000.0,
        ])
    print(format_table(
        ["variant", "speed [m/s]", "goodput [kbit/s]", "± 95% CI [kbit/s]"],
        rows))
    print(f"\n{len(study.points)} sweep points × {spec.replications} seeds "
          f"in {elapsed:.1f} s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=smoke_scaled(150, 40),
                        help="delivered packets per run")
    parser.add_argument("--speeds", type=float, nargs="+",
                        default=smoke_scaled([1.0, 5.0, 20.0], [20.0]),
                        help="random-waypoint max speeds in m/s")
    parser.add_argument("--variants", nargs="+",
                        default=smoke_scaled(["vegas", "newreno"], ["vegas"]))
    parser.add_argument("--replications", type=int,
                        default=smoke_scaled(2, 1))
    parser.add_argument("--store", default=".study-cache",
                        help="result-store directory ('' disables)")
    args = parser.parse_args()

    show_break_and_repair(args.packets)
    print()
    sweep_speed(args)


if __name__ == "__main__":
    main()
