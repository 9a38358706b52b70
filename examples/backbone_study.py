#!/usr/bin/env python3
"""Backbone study: TCP variants over wireless cells bridged by a wired spine.

Sweeps the transport variant and the per-cell hop count of the ``backbone``
topology — 802.11 chain cells whose gateways sit on one shared Ethernet
bus — and prints per-point goodput alongside the spine's CSMA/CD metrics
(collisions, utilization), pricing what a wired segment in the path does to
the paper's chain results.

Run with::

    python examples/backbone_study.py --cell-hops 3 7 --packets 200
"""

from __future__ import annotations

import argparse

from repro import ScenarioConfig, format_table
from repro.experiments.smoke import smoke_scaled
from repro.experiments.study import SweepSpec, run_study


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cell-hops", type=int, nargs="+",
                        default=smoke_scaled([3, 7], [2]),
                        help="wireless hops per cell")
    parser.add_argument("--variants", nargs="+",
                        default=smoke_scaled(["newreno", "vegas"], ["newreno"]),
                        help="transport variants to sweep")
    parser.add_argument("--packets", type=int, default=smoke_scaled(200, 30),
                        help="delivered packets per data point")
    parser.add_argument("--wired-rate", type=float, default=10.0,
                        help="spine bus rate [Mbit/s]")
    parser.add_argument("--replications", type=int,
                        default=smoke_scaled(2, 1))
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()

    spec = SweepSpec(
        name="backbone-study",
        topology="backbone",
        topology_params={"wired_rate_mbps": args.wired_rate},
        axes={"variant": args.variants, "cell_hops": args.cell_hops},
        base=ScenarioConfig(routing="static", packet_target=args.packets,
                            max_sim_time=600.0, seed=args.seed),
        replications=args.replications,
    )
    study = run_study(spec)

    rows = []
    for point in study.points:
        metrics = point.run.metrics or {}
        rows.append([
            point.values["variant"],
            point.values["cell_hops"],
            round(point.mean_goodput_kbps, 1),
            int(metrics.get("link.wired.bus0.collisions", 0)),
            round(metrics.get("link.wired.bus0.utilization", 0.0), 4),
        ])
    print(format_table(
        ["variant", "cell hops", "goodput [kbit/s]",
         "spine collisions", "spine utilization"],
        rows,
    ))


if __name__ == "__main__":
    main()
