#!/usr/bin/env python3
"""Workload API v2: heterogeneous transports and a scripted timeline.

Composes a scenario the paper could not run: a NewReno flow and a Vegas flow
sharing a 7-hop 802.11 chain, with the Vegas flow entering mid-run through a
timeline event and the middle node dropping off the air for a scripted
outage.  Afterwards it varies the *traffic mix* — the number of Vegas flows
competing with NewReno — running each mix on a few seeds and reporting the
cross-seed confidence interval of the aggregate goodput.

Run with::

    python examples/workload_mix.py [--packets 300] [--replications 2]

It exits non-zero if the scripted outage did not happen or the latecomer
delivered nothing: then the scenario did not show what it is here for.
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    FlowSpec,
    Scenario,
    ScenarioConfig,
    ScenarioEvent,
    ScenarioSpec,
    chain_topology,
    format_table,
)
from repro.core.statistics import confidence_interval
from repro.experiments.smoke import smoke_scaled
from repro.phy.propagation import Position
from repro.topology.base import Topology


def two_flow_chain(hops: int) -> Topology:
    """A chain whose two flows share the full path (coexistence stress)."""
    positions = {i: Position(x=i * 200.0, y=0.0) for i in range(hops + 1)}
    flows = [(0, hops), (0, hops)]
    return Topology(name=f"chain-{hops}-2flows", positions=positions,
                    flows=flows)


def run_scripted_scenario(args) -> list:
    """One mixed scenario with a timeline: late Vegas entry + node outage.

    Returns what went wrong: empty if the outage happened and the latecomer
    delivered.
    """
    # A run checks its packet target every 5 simulated seconds and a smoke
    # run reaches its 40 packets by the first check, so there the whole
    # timeline happens within the first 5 s.
    latecomer_start, outage_start, outage_end = smoke_scaled(
        (5.0, 20.0, 28.0), (1.0, 2.0, 3.0))
    spec = ScenarioSpec(
        name="newreno-vs-late-vegas",
        topology=chain_topology(hops=args.hops),
        workload=(
            FlowSpec(0, args.hops, variant="newreno"),
            FlowSpec(0, args.hops, variant="vegas", label="latecomer"),
        ),
        config=ScenarioConfig(packet_target=args.packets, max_sim_time=240.0,
                              seed=args.seed),
        timeline=(ScenarioEvent.flow_start(latecomer_start, flow=2),
                  ScenarioEvent.node_down(outage_start, args.hops // 2),
                  ScenarioEvent.node_up(outage_end, args.hops // 2)),
    )
    result = Scenario(spec).run()

    print(f"\n=== {result.name} ===")
    rows = [
        [flow.flow_id, flow.variant, flow.label or "-",
         round(flow.goodput_kbps, 1), flow.delivered_packets,
         flow.retransmissions]
        for flow in result.flows
    ]
    print(format_table(
        ["flow", "variant", "label", "goodput kbit/s", "delivered", "retx"],
        rows))
    outages = int(result.metric_total("scenario.timeline.node-down"))
    print(f"timeline: {outages} scripted outage(s), "
          f"aggregate {result.aggregate_goodput_kbps:.1f} kbit/s, "
          f"fairness {result.fairness_index:.3f}")
    problems = []
    if outages < 1:
        problems.append("the scripted outage did not happen")
    if result.flows[1].delivered_packets == 0:
        problems.append("the latecomer delivered nothing")
    return problems


def run_mix_study(args) -> None:
    """Vary the traffic mix: how many of the two flows run Vegas?"""
    topology = two_flow_chain(args.hops)
    print(f"\n=== traffic-mix sweep ({args.replications} seed(s)/point) ===")
    rows = []
    for vegas_flows in (0, 1, 2):
        # The last ``vegas_flows`` flows run Vegas, the others NewReno.
        cut = len(topology.flows) - vegas_flows
        workload = tuple(
            FlowSpec(source, destination,
                     variant="newreno" if index < cut else "vegas")
            for index, (source, destination) in enumerate(topology.flows))
        runs = [
            Scenario(ScenarioSpec(
                topology=topology, workload=workload,
                config=ScenarioConfig(packet_target=args.packets,
                                      max_sim_time=240.0, seed=args.seed + rep),
            )).run()
            for rep in range(args.replications)
        ]
        interval = confidence_interval([run.aggregate_goodput_bps for run in runs])
        rows.append([
            f"{vegas_flows}/2", runs[0].variant,
            round(interval.mean / 1000.0, 1),
            round(interval.half_width / 1000.0, 1),
            round(runs[0].fairness_index, 3),
        ])
    print(format_table(
        ["vegas flows", "variants", "goodput kbit/s", "±", "fairness"], rows))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=smoke_scaled(300, 40),
                        help="delivered packets per run (paper: 110000)")
    parser.add_argument("--hops", type=int, default=7)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--replications", type=int,
                        default=smoke_scaled(2, 1),
                        help="independent seeds per traffic mix")
    args = parser.parse_args()

    problems = run_scripted_scenario(args)
    run_mix_study(args)
    if problems:
        sys.exit("workload_mix: " + "; ".join(problems))


if __name__ == "__main__":
    main()
