#!/usr/bin/env python3
"""Random-topology study: the paper's Section 4.4.2 experiment at a chosen scale.

Generates a connected random node field with random flow endpoints (the paper
uses 120 nodes on 2500 × 1000 m² with 10 flows), runs every TCP variant on the
*same* topology, and prints aggregate goodput, per-flow goodput and Jain's
fairness index (Figures 18-19 and Table 4).

Run with::

    python examples/random_topology_study.py --nodes 60 --flows 6 --bandwidth 11

Use ``--nodes 120 --flows 10 --area 2500 1000`` for the paper-scale topology
(slower).
"""

from __future__ import annotations

import argparse

from repro import (
    TRANSPORTS,
    Scenario,
    ScenarioConfig,
    ScenarioSpec,
    format_table,
    random_topology,
)
from repro.experiments.smoke import smoke_scaled


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=smoke_scaled(60, 30))
    parser.add_argument("--flows", type=int, default=smoke_scaled(6, 3))
    parser.add_argument("--area", type=float, nargs=2, default=[1800.0, 800.0],
                        metavar=("WIDTH", "HEIGHT"))
    parser.add_argument("--bandwidth", type=float, default=11.0)
    parser.add_argument("--packets", type=int, default=smoke_scaled(400, 60),
                        help="aggregate delivered packets per run")
    parser.add_argument("--topology-seed", type=int, default=7)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    topology = random_topology(
        node_count=args.nodes, area=tuple(args.area), flow_count=args.flows,
        seed=args.topology_seed,
    )
    print(f"Generated connected random topology: {topology.node_count} nodes, "
          f"{len(topology.flows)} flows")
    for index, (source, destination) in enumerate(topology.flows, start=1):
        print(f"  FTP{index}: node {source} -> node {destination} "
              f"({topology.hop_count(source, destination)} hops)")

    variants = ("vegas", "newreno", "vegas-at", "newreno-at")
    rows = []
    for variant in variants:
        config = ScenarioConfig(
            variant=variant, bandwidth_mbps=args.bandwidth,
            packet_target=args.packets, max_sim_time=400.0, seed=args.seed,
        )
        result = Scenario(ScenarioSpec(topology=topology, config=config)).run()
        rows.append(
            [TRANSPORTS.get(variant).label]
            + [round(flow.goodput_kbps, 1) for flow in result.flows]
            + [round(result.aggregate_goodput_kbps, 1), round(result.fairness_index, 3)]
        )

    flow_headers = [f"FTP{i}" for i in range(1, len(topology.flows) + 1)]
    print(f"\nRandom topology at {args.bandwidth:g} Mbit/s (goodput in kbit/s)\n")
    print(format_table(["variant"] + flow_headers + ["aggregate", "Jain"], rows))
    print("\nExpected shape (paper, Figs. 18-19 / Table 4): Vegas and NewReno achieve"
          "\nsimilar aggregate goodput, but Vegas — and especially Vegas + ACK thinning —"
          "\ndistributes it far more fairly across the flows.")


if __name__ == "__main__":
    main()
