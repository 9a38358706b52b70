#!/usr/bin/env python3
"""Declarative study: one SweepSpec instead of nested sweep loops.

Describes a (variant × hop count) chain sweep with seed replication as data,
runs it through :func:`repro.run_study` — in parallel over a process
pool when the machine has more than one core, with every scenario run cached
as JSON keyed by its configuration hash — and prints the cross-seed goodput
confidence intervals.  Re-running the script with the same parameters answers
from the cache instantly.

Run with::

    python examples/study_sweep.py [--packets 250] [--replications 3]
        [--hops 2 4 8] [--variants vegas newreno] [--store .study-cache]
"""

from __future__ import annotations

import argparse
import time

from repro.experiments.smoke import smoke_scaled

from repro import (
    TRANSPORTS,
    ScenarioConfig,
    StudyResult,
    SweepSpec,
    format_table,
    run_study,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=smoke_scaled(250, 40),
                        help="delivered packets per run (paper: 110000)")
    parser.add_argument("--hops", type=int, nargs="+",
                        default=smoke_scaled([2, 4, 8], [2, 4]))
    parser.add_argument("--variants", nargs="+", default=["vegas", "newreno"],
                        help=f"any of: {', '.join(TRANSPORTS.names())}")
    parser.add_argument("--bandwidth", type=float, default=2.0)
    parser.add_argument("--replications", type=int, default=smoke_scaled(3, 1),
                        help="independent seeds per sweep point")
    parser.add_argument("--store", default=".study-cache",
                        help="result-store directory ('' disables)")
    parser.add_argument("--serial", action="store_true",
                        help="run every item in this process (max_workers=1)")
    parser.add_argument("--save", metavar="PATH",
                        help="write the StudyResult as JSON to PATH")
    args = parser.parse_args()

    spec = SweepSpec(
        name="chain-goodput-study",
        topology="chain",
        axes={"variant": args.variants, "hops": args.hops},
        base=ScenarioConfig(bandwidth_mbps=args.bandwidth,
                            packet_target=args.packets),
        replications=args.replications,
    )

    started = time.perf_counter()
    study = run_study(
        spec,
        max_workers=1 if args.serial else None,
        store=args.store or None,
    )
    elapsed = time.perf_counter() - started

    rows = []
    for point in study.points:
        interval = point.goodput_interval
        rows.append([
            TRANSPORTS.get(point.values["variant"]).label,
            point.values["hops"],
            interval.mean / 1000.0,
            interval.half_width / 1000.0,
        ])
    print(format_table(
        ["variant", "hops", "goodput [kbit/s]", "± 95% CI [kbit/s]"], rows))
    print(f"\n{len(study.points)} sweep points × {spec.replications} seeds "
          f"in {elapsed:.1f} s")

    if args.save:
        path = study.save(args.save)
        print(f"study written to {path} "
              f"(reload with StudyResult.load({str(path)!r}))")
        assert StudyResult.load(path) == study


if __name__ == "__main__":
    main()
