#!/usr/bin/env python3
"""Python calls per frame sent, for one ledger workload (stdlib only).

Counts the ``call`` events ``sys.setprofile`` reports while
``Scenario.run()`` runs — every Python function entered, generator resumes
included, C functions not — and divides by the frames the run sent
(radio frames plus wired-bus frames, the ledger's ``frames``).  The count is
exact for a seed and an interpreter version, so a ceiling on it guards the
per-frame work of the hot path without a timing.  The count does not
depend on what ran earlier in the process: an unprofiled first slice of the
same run goes first, so what a process does once (``re`` pattern compiles
behind ``fnmatch``, lazy imports) stays out of it, and the cyclic garbage
collector is off while it counts, since where a collection falls depends on
the allocations before it and a ``gc.callbacks`` entry or a finalizer it
runs is a Python call.

Comprehensions are functions of their own up to Python 3.11 and inlined from
3.12 on, so a ceiling holds for one interpreter version only; pass one per
version (``--ceiling 3.12=56``).  With ceilings given and none for the
running version, the script exits 2.

Usage::

    PYTHONPATH=src:. python tools/calls_per_frame.py chain7_vegas_at \\
        --seed 3 --packet-target 500 [--ceiling 3.12=56] [--top 20]

Exit status 1 if the reading is above the running version's ceiling.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from typing import Dict, Optional, Tuple

from benchmarks.ledger.child import family_totals
from benchmarks.ledger.registry import WORKLOADS


def count_calls(workload: str, seed: int, packet_target: Optional[int] = None,
                top: int = 0) -> Tuple[int, int, Counter]:
    """``(calls, frames, calls by function)`` for one run of ``workload``.

    The per-function counter is filled only when ``top`` is positive.
    """
    from repro.experiments import build_named_scenario
    from repro.net.packet import reset_packet_ids

    spec = WORKLOADS[workload]
    overrides = dict(spec.overrides, seed=seed)
    if packet_target is not None:
        overrides["packet_target"] = packet_target
    # One packet ends the warm-up at its first run slice.
    build_named_scenario(spec.preset, **dict(overrides, packet_target=1)).run()
    reset_packet_ids()
    scenario = build_named_scenario(spec.preset, **overrides)
    calls = [0]
    by_function: Counter = Counter()

    if top > 0:
        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1
                code = frame.f_code
                by_function[(code.co_filename, code.co_firstlineno, code.co_name)] += 1
    else:
        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = scenario.run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    totals = family_totals(result.metrics)
    frames = int(totals.get("phy.frames_sent", 0) + totals.get("link.wired.frames_sent", 0))
    return calls[0], frames, by_function


def parse_ceilings(values) -> Dict[str, float]:
    """``{"3.12": 68.0}`` from ``["3.12=68"]``."""
    ceilings = {}
    for value in values:
        version, sep, number = value.partition("=")
        if not sep:
            raise ValueError(f"--ceiling wants VERSION=VALUE, got {value!r}")
        ceilings[version] = float(number)
    return ceilings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--packet-target", type=int, default=None,
                        help="override the workload's packet target")
    parser.add_argument("--ceiling", action="append", default=[],
                        metavar="VERSION=VALUE",
                        help="highest calls per frame allowed on that "
                             "interpreter version; may be repeated")
    parser.add_argument("--top", type=int, default=0,
                        help="also list the N most-called functions")
    args = parser.parse_args(argv)
    try:
        ceilings = parse_ceilings(args.ceiling)
    except ValueError as error:
        parser.error(str(error))

    calls, frames, by_function = count_calls(args.workload, args.seed,
                                             args.packet_target, args.top)
    per_frame = calls / frames if frames else float("inf")
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    print(f"{args.workload} seed {args.seed} python {version}: {calls} calls, "
          f"{frames} frames, {per_frame:.1f} calls per frame")
    for (filename, line, name), count in by_function.most_common(args.top):
        print(f"{count / frames:8.2f}  {name} ({filename}:{line})")
    if not ceilings:
        return 0
    if version not in ceilings:
        print(f"no ceiling for python {version} (have {', '.join(sorted(ceilings))})",
              file=sys.stderr)
        return 2
    ceiling = ceilings[version]
    print(f"ceiling {ceiling}: {'ok' if per_frame <= ceiling else 'EXCEEDED'}")
    return 0 if per_frame <= ceiling else 1


if __name__ == "__main__":
    sys.exit(main())
