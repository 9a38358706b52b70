#!/usr/bin/env python3
"""Grid fairness study: the paper's Section 4.4.1 experiment at a chosen scale.

Runs the 21-node grid with six competing FTP flows for each TCP variant at one
bandwidth, printing the per-flow goodput breakdown (Figure 17) and Jain's
fairness index (Table 3 row).  Demonstrates the goodput/fairness trade-off the
paper highlights: NewReno lets one or two flows dominate, Vegas shares more
evenly, and Vegas + ACK thinning is the most even.

Run with::

    python examples/grid_fairness_study.py --bandwidth 11 --packets 450
"""

from __future__ import annotations

import argparse

from repro import (
    TRANSPORTS,
    Scenario,
    ScenarioConfig,
    ScenarioSpec,
    format_table,
    grid_topology,
)
from repro.experiments.smoke import smoke_scaled


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bandwidth", type=float, default=11.0,
                        help="802.11 data rate in Mbit/s")
    parser.add_argument("--packets", type=int, default=smoke_scaled(450, 60),
                        help="aggregate delivered packets per run (paper: 110000)")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    topology = grid_topology()
    variants = ("vegas", "newreno", "vegas-at", "newreno-at")

    rows = []
    for variant in variants:
        config = ScenarioConfig(
            variant=variant,
            bandwidth_mbps=args.bandwidth,
            packet_target=args.packets,
            max_sim_time=400.0,
            seed=args.seed,
        )
        result = Scenario(ScenarioSpec(topology=topology, config=config)).run()
        rows.append(
            [TRANSPORTS[config.variant].label]
            + [round(flow.goodput_kbps, 1) for flow in result.flows]
            + [round(result.aggregate_goodput_kbps, 1), round(result.fairness_index, 3)]
        )

    flow_headers = [f"FTP{i}" for i in range(1, len(topology.flows) + 1)]
    print(f"\n21-node grid, 6 flows, {args.bandwidth:g} Mbit/s "
          f"(goodput in kbit/s)\n")
    print(format_table(["variant"] + flow_headers + ["aggregate", "Jain"], rows))
    print("\nExpected shape (paper, Fig. 17 / Table 3): NewReno starves several flows;"
          "\nVegas is fairer at comparable aggregate goodput; Vegas + ACK thinning has"
          "\nthe best fairness of all variants.")


if __name__ == "__main__":
    main()
