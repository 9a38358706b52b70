"""The ledger's parent: launches one child interpreter at a time and reports.

::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src:. python -m benchmarks.ledger --seed 3 [--seconds 20] [-o FILE]
    PYTHONPATH=src:. python -m benchmarks.ledger compare A.json B.json
    PYTHONPATH=src:. python -m benchmarks.ledger record FIRST_SEED LAST_SEED

The first is the contract ``BENCHMARK.json`` records: one workload, children
of the same seed until ``--seconds`` have passed (``--trace 0``) or one timed
plus one traced child (``--trace 1``), and one JSON object on the last line.
The second is the same measurement for every workload in turn, timed children
and then a traced one, written to the file ``compare`` reads; ``-o`` makes a
contract run write that file too.  The last rewrites ``reference.json``, the
per-seed protocol outputs every run is held to; only a change that means to
alter what the protocols do has a reason to.

Never two children at once: the simulator is single-threaded and the
reference box has two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:       # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from benchmarks.ledger.registry import (  # noqa: E402
    END_TO_END,
    OUT_DIR,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    Workload,
    metric_values,
    units,
)

#: A child that has not answered after this many seconds is killed; low
#: enough that a contract run still ends inside its 180 s.
WATCHDOG_S = 150.0
#: Timed children start in pairs at least, so that every measurement checks
#: determinism and has a median to report.
MIN_CHILDREN = 2
#: ``{"<workload> <seed>": [delivered, frames, sim_fingerprint]}`` as ``record``
#: wrote it: what the protocols did, per seed, on the commit that defined the
#: benchmark.  Both gated speed metrics are per frame, so a change that made
#: the protocols send more frames per delivered packet would read as unchanged
#: on them; this is what catches it, to the digit.  Frames per packet spreads
#: 45 % across seeds on city1k_rwp, too wide for a bounded metric.
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def launch(workload: Workload, seed: int, traced: bool = False) -> dict:
    """Run one child to the end; its report, or ``{"failure": why}``."""
    command = [sys.executable, "-m", "benchmarks.ledger.child", workload.name,
               "--seed", str(seed)] + (["--traced"] if traced else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WATCHDOG_S)
    except subprocess.TimeoutExpired as error:
        return _died(f"no result after the {WATCHDOG_S:.0f} s watchdog", error.stderr)
    if done.returncode != 0:
        return _died(f"child exited with code {done.returncode}", done.stderr)
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return _died("child printed no report", done.stderr)


def _died(why: str, stderr) -> dict:
    if isinstance(stderr, bytes):
        stderr = stderr.decode(errors="replace")
    tail = "\n".join((stderr or "").splitlines()[-12:])
    return {"failure": f"{why}\n{tail}" if tail else why}


def signature(report: dict) -> tuple:
    """Everything that must repeat to the digit for one seed."""
    return (report["events"], report["delivered"], report["frames"],
            report["sim_fingerprint"])


def protocol_outputs(report: dict) -> list:
    """What ``reference.json`` holds per seed.  No event count: an event cut
    that leaves the protocols alone must still match."""
    return [report["delivered"], report["frames"], report["sim_fingerprint"]]


def recorded_outputs(workload: Workload, seed: int) -> Optional[list]:
    """The recorded protocol outputs of this seed; None for a seed never recorded."""
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(f"{workload.name} {seed}")


def judge(workload: Workload, report: dict, reference: Optional[dict],
          recorded: Optional[list] = None) -> dict:
    """Mark ``report`` failed if it breaks a rule; ``reference`` is the first
    good timed run of the same seed, ``recorded`` the seed's entry in
    ``reference.json``."""
    if "failure" in report:
        return report
    why = None
    if workload.target_bound and not report["reached_packet_target"]:
        why = "packet target not reached"
    elif report["delivered"] == 0:
        why = "no packet delivered"
    elif recorded is not None and protocol_outputs(report) != recorded:
        why = ("protocol outputs differ from reference.json: delivered, frames "
               f"{recorded[:2]} -> {protocol_outputs(report)[:2]}, "
               f"sim_fingerprint {recorded[2][:12]} -> {report['sim_fingerprint'][:12]}")
    elif reference is not None and report["traced"]:
        if (report["events"], report["sim_fingerprint"]) != (
                reference["events"], reference["sim_fingerprint"]):
            why = "the tracer perturbed the simulation"
    elif reference is not None and signature(report) != signature(reference):
        why = "deterministic outputs differ between repeats of one seed"
    if why is not None:
        report["failure"] = why
    return report


def measure(workload: Workload, seed: int, seconds: float,
            trace: Optional[int]) -> dict:
    """One workload's summary from fresh children of one seed.

    ``trace`` 0: timed children until ``seconds`` have passed.  1: one timed
    child, then a traced one.  None: timed children for ``seconds``, then a
    traced one.  Every child is held to the first good one.
    """
    started = time.perf_counter()
    reference: Optional[dict] = None
    recorded = recorded_outputs(workload, seed)
    if recorded is None:
        print(f"   no reference recorded for {workload.name} seed {seed}: protocol "
              f"outputs are checked between this run's children only", flush=True)

    def child(traced: bool = False) -> dict:
        nonlocal reference
        report = judge(workload, launch(workload, seed, traced), reference, recorded)
        if reference is None and "failure" not in report:
            reference = report
        return report

    timed = [child()]
    while trace != 1 and (len(timed) < MIN_CHILDREN
                          or time.perf_counter() - started < seconds):
        timed.append(child())
    return summarise(workload, seed, timed, child(traced=True) if trace != 0 else None)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def end_to_end_values(report: dict) -> Dict[str, float]:
    frames = report["frames"]
    return {
        "host_us_per_frame": 1e6 * report["wall_s"] / frames,
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "events_per_frame": report["events"] / frames,
    }


def spread_of(values: List[float]) -> dict:
    """Median with min, quartiles, max and n."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (values[0],) * 3)
    return {"median": statistics.median(values), "min": min(values), "q1": q1,
            "q3": q3, "max": max(values), "n": len(values), "values": values}


def summarise(workload: Workload, seed: int, timed: List[dict],
              traced: Optional[dict]) -> dict:
    """One workload's section of the ledger from its judged reports."""
    reports = timed + ([traced] if traced is not None else [])
    # A child that ran to the end has measurements even when judged failed;
    # the run then reports them beside ``correct: false``.
    measured = [report for report in timed if "wall_s" in report]
    summary = {
        "workload": workload.name, "seed": seed,
        "attempted": len(reports),
        "failed": sum("failure" in report for report in reports),
        "failures": [report["failure"] for report in reports if "failure" in report],
        "end_to_end": {}, "per_layer": {}, "deterministic": {},
    }
    if not measured:
        return summary
    rows = [end_to_end_values(report) for report in measured]
    summary["end_to_end"] = {metric.name: spread_of([row[metric.name] for row in rows])
                             for metric in END_TO_END}
    first = measured[0]
    summary["deterministic"] = {
        "events": first["events"], "delivered": first["delivered"],
        "frames": first["frames"], "sim_fingerprint": first["sim_fingerprint"],
        "events_per_delivered_pkt": first["layers"]["core.events_per_pkt"],
        "goodput_kbps": first["layers"]["transport.goodput_kbps"],
    }
    layers = dict(first["layers"])
    for metric in PER_LAYER:
        if metric.source == "timed":
            layers[metric.name] = statistics.median(
                report["layers"][metric.name] for report in measured)
    if traced is not None and "wall_s" in traced:
        layers.update({metric.name: traced["layers"][metric.name]
                       for metric in PER_LAYER if metric.source == "traced"
                       and metric.name in traced["layers"]})
        layers["trace.overhead_ratio"] = (
            traced["wall_s"] / layers["experiments.wall_s"])
    summary["per_layer"] = layers
    return summary


def print_summary(summary: dict) -> None:
    unit = units()
    print(f"== {summary['workload']}  seed {summary['seed']}  "
          f"attempted {summary['attempted']}  failed {summary['failed']}")
    for why in summary["failures"]:
        print("   FAILED: " + why.replace("\n", "\n           "))
    for name, stat in summary["end_to_end"].items():
        print(f"   {name:34s} {stat['median']:14.6g} {unit[name]:7s} "
              f"min {stat['min']:.6g}  q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}  "
              f"n={stat['n']}")
    for name, value in summary["deterministic"].items():
        print(f"   {name:34s} {value}")
    for metric in PER_LAYER:
        if metric.name in summary["per_layer"]:
            print(f"   {metric.name:34s} {summary['per_layer'][metric.name]:14.6g} "
                  f"{metric.unit}")
    sys.stdout.flush()


def contract_line(summary: dict, trace: int) -> Optional[str]:
    """The last line the benchmark contract asks for; None when a declared
    metric could not be measured."""
    names = PER_LAYER if trace else END_TO_END
    values = (summary["per_layer"] if trace else
              {name: stat["median"] for name, stat in summary["end_to_end"].items()})
    missing = [metric.name for metric in names if metric.name not in values]
    if missing:
        print(f"no result: {len(missing)} metrics could not be measured "
              f"({', '.join(missing[:4])} ...)", file=sys.stderr)
        return None
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metric_values(names, values),
    })


def record(first: int, last: int) -> int:
    """Write ``reference.json`` from one child per workload and seed."""
    lines = []
    for seed in range(first, last + 1):
        for workload in WORKLOADS.values():
            report = judge(workload, launch(workload, seed), None)
            if "failure" in report:
                print(f"{workload.name} seed {seed} FAILED: {report['failure']}")
                return 1
            lines.append(f' "{workload.name} {seed}": '
                         f'{json.dumps(protocol_outputs(report))}')
            print(lines[-1], flush=True)
    REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.ledger.compare import main as compare_main
        return compare_main(argv[1:])
    if argv[:1] == ["record"]:
        seeds = argparse.ArgumentParser(prog="python -m benchmarks.ledger record")
        seeds.add_argument("first", type=int, help="first seed to record")
        seeds.add_argument("last", type=int, help="last seed to record")
        chosen = seeds.parse_args(argv[1:])
        return record(chosen.first, chosen.last)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="measure this workload only (default: each in turn)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="keep starting timed children this long")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed children only; 1: one timed and one traced "
                             "child (default: timed children, then a traced one); "
                             "with --workload, ends with the contract's JSON line")
    parser.add_argument("-o", "--output", type=Path,
                        help="write the file `compare` reads (default, without "
                             "--workload: out/ledger_seed<N>.json)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    chosen = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    summaries = {}
    for workload in chosen:
        summaries[workload.name] = measure(workload, args.seed, args.seconds, args.trace)
        print_summary(summaries[workload.name])
    derived = {}
    if {"chain7_vegas_at", "chain7_observed"} <= set(summaries):
        plain, observed = (summaries[name]["per_layer"].get("experiments.wall_s")
                           for name in ("chain7_vegas_at", "chain7_observed"))
        if plain and observed:
            derived["metrics.overhead_ratio"] = observed / plain
            print(f"== metrics.overhead_ratio  {observed / plain:.4f}  (median "
                  f"experiments.wall_s, chain7_observed / chain7_vegas_at)")
    attempted = sum(summary["attempted"] for summary in summaries.values())
    failed = sum(summary["failed"] for summary in summaries.values())
    print(f"== failed_share  {failed / attempted:.4f}  ({failed} of {attempted} runs)")

    output = args.output
    if output is None and args.workload is None:
        output = OUT_DIR / f"ledger_seed{args.seed}.json"
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds,
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "platform": platform.platform()},
            "workloads": summaries, "derived": derived,
            "failed_share": failed / attempted,
        }, indent=1))
        print(f"wrote {output}")
    if args.workload is None or args.trace is None:
        return 1 if failed else 0
    line = contract_line(summaries[args.workload], args.trace)
    if line is None:
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
