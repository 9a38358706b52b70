#!/usr/bin/env python3
"""Quickstart: compare TCP Vegas and TCP NewReno on a 7-hop 802.11 chain.

This is the smallest end-to-end use of the library: build the paper's chain
topology, run one scenario per TCP variant, and print the measures the paper
reports (goodput, transport retransmissions, average congestion window, false
route failures).

Run with::

    python examples/quickstart.py [--packets 300] [--hops 7] [--bandwidth 2.0]
"""

from __future__ import annotations

import argparse

from repro import (
    TRANSPORTS,
    Scenario,
    ScenarioConfig,
    ScenarioSpec,
    chain_topology,
    format_table,
)
from repro.experiments.smoke import smoke_scaled


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=smoke_scaled(300, 40),
                        help="delivered packets per run (paper: 110000)")
    parser.add_argument("--hops", type=int, default=7, help="chain length in hops")
    parser.add_argument("--bandwidth", type=float, default=2.0,
                        help="802.11 data rate in Mbit/s (2, 5.5 or 11)")
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")
    args = parser.parse_args()

    topology = chain_topology(hops=args.hops)
    variants = ("vegas", "newreno", "vegas-at", "newreno-at", "paced-udp")

    rows = []
    for variant in variants:
        config = ScenarioConfig(
            variant=variant,
            bandwidth_mbps=args.bandwidth,
            packet_target=args.packets,
            max_sim_time=600.0,
            seed=args.seed,
        )
        result = Scenario(ScenarioSpec(topology=topology, config=config)).run()
        flow = result.flows[0]
        rows.append([
            TRANSPORTS.get(variant).label,
            round(result.aggregate_goodput_kbps, 1),
            round(flow.retransmissions_per_packet, 4),
            round(flow.average_window, 2),
            result.false_route_failures,
            round(result.link_layer_drop_probability, 4),
        ])

    print(f"\n{args.hops}-hop chain, {args.bandwidth:g} Mbit/s, "
          f"{args.packets} delivered packets per run\n")
    print(format_table(
        ["variant", "goodput [kbit/s]", "rtx/pkt", "avg window", "false route failures",
         "LL drop prob"],
        rows,
    ))
    print("\nExpected shape (paper, Figs. 6-9): Vegas beats NewReno in goodput with far"
          "\nfewer retransmissions, a smaller window and fewer false route failures;"
          "\npaced UDP is the upper bound.")


if __name__ == "__main__":
    main()
