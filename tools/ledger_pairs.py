#!/usr/bin/env python3
"""Interleaved parent/change pairs of one ledger workload (stdlib only).

Wall clock on a shared box drifts by tens of percent within minutes, so two
sequential ledger runs cannot settle a ``host_us_per_frame`` question.  This
runs ``python -m benchmarks.ledger.child`` alternately in two checkouts — one
child at a time, alternating which side goes first — and prints each side's
median and quartiles and the pairs each side won (ties count for neither).
One discarded child per side runs first, so a fresh clone's cold bytecode
cache cannot favour one side.
Both sides must report the same ``delivered``, ``frames`` and
``sim_fingerprint`` for the seed: per-frame metrics mean nothing otherwise.

It reads the ledger in each checkout; it edits nothing.

Usage::

    python tools/ledger_pairs.py --parent ../parent --change . \\
        --workload chain7_vegas_at [--pairs 10] [--seed 3]

Exit status 1 if a child fails or the two sides' protocol outputs differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: Per-child limit, the ledger's own watchdog.
WATCHDOG_S = 150.0
PROTOCOL_OUTPUTS = ("delivered", "frames", "sim_fingerprint")
METRICS = ("host_us_per_frame", "events_per_frame", "setup_s", "peak_rss_mb")


def run_child(checkout: Path, workload: str, seed: int) -> Dict[str, object]:
    """One untraced ledger child in ``checkout``; its report plus metrics."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(checkout / "src"), str(checkout)])
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger.child", workload,
         "--seed", str(seed)],
        cwd=checkout, env=env, capture_output=True, text=True,
        timeout=WATCHDOG_S, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    frames = report["frames"]
    report["host_us_per_frame"] = 1e6 * report["wall_s"] / frames
    report["events_per_frame"] = report["events"] / frames
    return report


def quartiles(values: List[float]) -> str:
    """``median (lower quartile - upper quartile)``, inclusive method."""
    if len(values) < 2:
        return f"{values[0]:.5g}"
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.5g} ({low:.5g} - {high:.5g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    def child(label: str, side: str) -> Optional[Dict[str, object]]:
        try:
            return run_child(checkouts[side], args.workload, args.seed)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
            print(f"{label}: the {side} child failed: {error}\n"
                  f"{error.stderr or ''}", file=sys.stderr)
            return None

    # One discarded child per side first, so that compiling a fresh
    # checkout's bytecode cannot tax that side's first timed child.
    if any(child("warm-up", side) is None for side in checkouts):
        return 1
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            report = child(f"pair {pair + 1}", side)
            if report is None:
                return 1
            runs[side].append(report)
        parent, change = runs["parent"][-1], runs["change"][-1]
        differing = [name for name in PROTOCOL_OUTPUTS if parent[name] != change[name]]
        if differing:
            print(f"pair {pair + 1}: protocol outputs differ: " + ", ".join(
                f"{name} {parent[name]} != {change[name]}" for name in differing),
                file=sys.stderr)
            return 1
        print(f"pair {pair + 1:2d} ({order[0]} first): host_us_per_frame "
              f"{parent['host_us_per_frame']:.2f} -> {change['host_us_per_frame']:.2f}",
              flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs; "
          f"delivered {parent['delivered']}, frames {parent['frames']}, "
          f"fingerprint {parent['sim_fingerprint'][:12]} on both sides")
    for metric in METRICS:
        before = [run[metric] for run in runs["parent"]]
        after = [run[metric] for run in runs["change"]]
        won = sum(b > a for b, a in zip(before, after))
        lost = sum(b < a for b, a in zip(before, after))
        print(f"{metric:18s} parent {quartiles(before)}  change {quartiles(after)}  "
              f"change better in {won}, worse in {lost} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
