"""``python -m benchmarks.ledger compare A.json B.json``

Per workload and end-to-end metric: both medians, B/A, the bound and a
verdict by the benchmark's own rule.  ``A`` is the base of every ratio.

* ``worse`` — B's median is worse than A's by more than the metric's bound.
* ``better`` — B's median is better than A's by more than the bound.
* ``same`` — neither: the bound is the resolution of the ledger.

Below each workload: whether the outputs that are exact for a seed (events,
delivered packets, frames, events per delivered packet, goodput,
``sim_fingerprint``) are identical, and how many runs failed.  The exit code
is 1 when anything is worse, differs unexpectedly or failed.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from benchmarks.ledger.registry import END_TO_END, Metric


def verdict(metric: Metric, base: float, other: float) -> str:
    """``better / same / worse`` for the median ``other`` against ``base``."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (other - base) / base
    if worsening > metric.bound:
        return "worse"
    return "better" if worsening < -metric.bound else "same"


def compare(base: dict, other: dict) -> List[str]:
    """Report lines; a line starting with ``!`` is a finding."""
    lines = []
    if base["seed"] != other["seed"]:
        lines.append(f"! seeds differ ({base['seed']} vs {other['seed']}): "
                     f"deterministic outputs are not comparable")
    for name, first in base["workloads"].items():
        second = other["workloads"].get(name)
        if second is None:      # B measured fewer workloads, e.g. one contract run
            continue
        lines.append(f"== {name}")
        if not first["end_to_end"] or not second["end_to_end"]:
            lines.append("! no measurements on one side")
            continue
        for metric in END_TO_END:
            a, b = (side["end_to_end"][metric.name]["median"]
                    for side in (first, second))
            outcome = verdict(metric, a, b)
            lines.append(
                f"{'!' if outcome == 'worse' else ' '}  {metric.name:20s} "
                f"A {a:12.6g}  B {b:12.6g} {metric.unit:6s} "
                f"B/A {b / a:7.4f}  bound {metric.bound:.0%}  {outcome}")
        same_seed = base["seed"] == other["seed"]
        differing = [key for key, value in first["deterministic"].items()
                     if second["deterministic"].get(key) != value]
        if not differing:
            lines.append("   deterministic outputs identical")
        else:
            lines.append(f"{'!' if same_seed else ' '}  deterministic outputs differ: "
                         + ", ".join(f"{key} {first['deterministic'][key]} -> "
                                     f"{second['deterministic'].get(key)}"
                                     for key in differing))
        for side, summary in (("A", first), ("B", second)):
            if summary["failed"]:
                lines.append(f"!  {side}: {summary['failed']} of "
                             f"{summary['attempted']} runs failed")
    for name in sorted(set(base.get("derived", {})) | set(other.get("derived", {}))):
        lines.append(f"== {name}  A {base['derived'].get(name)}  "
                     f"B {other['derived'].get(name)}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="ledger file A (the base of every ratio)")
    parser.add_argument("other", type=Path, help="ledger file B")
    args = parser.parse_args(argv)
    lines = compare(json.loads(args.base.read_text()),
                    json.loads(args.other.read_text()))
    print("\n".join(lines))
    return 1 if any(line.startswith("!") for line in lines) else 0
