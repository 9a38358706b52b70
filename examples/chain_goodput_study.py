#!/usr/bin/env python3
"""Chain study: regenerate the Figure 6-9 series at a user-chosen scale.

Sweeps the hop count of the single-flow chain for TCP Vegas, TCP NewReno,
NewReno + ACK thinning and paced UDP, and prints goodput, retransmissions,
average window and false route failures per hop count — the four measures of
the paper's Figures 6, 7, 8 and 9.

Run with::

    python examples/chain_goodput_study.py --hops 2 4 8 --packets 250
"""

from __future__ import annotations

import argparse

from repro import TRANSPORTS, ScenarioConfig, SweepSpec, format_table, run_study
from repro.experiments.smoke import smoke_scaled


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hops", type=int, nargs="+", default=smoke_scaled([2, 4, 8], [2, 4]),
                        help="hop counts to sweep (paper: 2 4 8 16 32 64)")
    parser.add_argument("--packets", type=int, default=smoke_scaled(250, 40),
                        help="delivered packets per data point (paper: 110000)")
    parser.add_argument("--bandwidth", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    base = ScenarioConfig(
        bandwidth_mbps=args.bandwidth,
        packet_target=args.packets,
        max_sim_time=600.0,
        seed=args.seed,
    )
    variants = ("vegas", "newreno", "newreno-at", "paced-udp")
    spec = SweepSpec(name="chain-comparison", topology="chain",
                     axes={"variant": variants, "hops": args.hops}, base=base)
    results = run_study(spec).nested("variant", "hops", leaf=lambda p: p.run)

    def table_for(title, measure):
        rows = []
        for hops in args.hops:
            rows.append([hops] + [measure(results[v][hops]) for v in variants])
        print(f"\n--- {title} ---")
        print(format_table(["hops"] + [TRANSPORTS[v].label for v in variants], rows))

    table_for("Figure 6: goodput [kbit/s]",
              lambda r: round(r.aggregate_goodput_kbps, 1))
    table_for("Figure 7: transport retransmissions per delivered packet",
              lambda r: round(r.average_retransmissions_per_packet, 4))
    table_for("Figure 8: average congestion window [packets]",
              lambda r: round(r.average_window, 2))
    table_for("Figure 9: false route failures",
              lambda r: r.false_route_failures)


if __name__ == "__main__":
    main()
