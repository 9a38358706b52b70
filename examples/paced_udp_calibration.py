#!/usr/bin/env python3
"""Paced UDP calibration: reproduce the Section 4.2 / Figure 10 offline tuning.

The paper bounds what any transport protocol can achieve over an 802.11 chain
with an "optimally paced" UDP flow: a CBR source whose inter-packet time *t*
is tuned offline to maximise goodput.  This example

1. prints the analytic 4-hop propagation delay for 2 / 5.5 / 11 Mbit/s
   (Table 2), which the paper uses as the starting point for *t*, and
2. sweeps *t* around that value on the 7-hop chain and reports the measured
   optimum (Figure 10).

Run with::

    python examples/paced_udp_calibration.py --bandwidth 2 --points 7
"""

from __future__ import annotations

import argparse

from repro import ScenarioConfig, SweepSpec, format_table, run_study
from repro.experiments.smoke import smoke_scaled
from repro.experiments.paced_udp import default_sweep_intervals, table2_propagation_delays


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bandwidth", type=float, default=2.0)
    parser.add_argument("--hops", type=int, default=7)
    parser.add_argument("--points", type=int, default=smoke_scaled(7, 3),
                        help="sweep points around the default")
    parser.add_argument("--packets", type=int, default=smoke_scaled(300, 40),
                        help="delivered packets per sweep point")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    print("Table 2 — analytic 4-hop propagation delay:")
    delays = table2_propagation_delays()
    print(format_table(
        ["bandwidth", "4-hop delay [ms]"],
        [[f"{bw:g} Mbit/s", round(delay * 1000, 1)] for bw, delay in delays.items()],
    ))

    base = ScenarioConfig(
        variant="paced-udp",
        bandwidth_mbps=args.bandwidth,
        packet_target=args.packets,
        max_sim_time=600.0,
        seed=args.seed,
    )
    spec = SweepSpec(name="paced-udp", topology="chain", topology_params={"hops": args.hops},
                     axes={"udp_interval": default_sweep_intervals(args.bandwidth,
                                                                   points=args.points)},
                     base=base)
    sweep = run_study(spec).nested("udp_interval", leaf=lambda p: p.run)
    best = max(sweep, key=lambda t: sweep[t].aggregate_goodput_bps)

    print(f"\nFigure 10 — paced UDP goodput vs. inter-packet time "
          f"({args.hops}-hop chain, {args.bandwidth:g} Mbit/s):")
    rows = [[round(t * 1000, 1), round(sweep[t].aggregate_goodput_kbps, 1),
             round(sweep[t].link_layer_drop_probability, 4)]
            for t in sorted(sweep)]
    print(format_table(["t [ms]", "goodput [kbit/s]", "LL drop prob"], rows))
    print(f"\nMeasured optimum: t_opt = {best * 1000:.1f} ms "
          f"({sweep[best].aggregate_goodput_kbps:.1f} kbit/s). "
          f"The paper finds t_opt = 35.7 ms at 2 Mbit/s; goodput drops sharply for"
          f" t < t_opt and degrades gracefully for t > t_opt.")


if __name__ == "__main__":
    main()
