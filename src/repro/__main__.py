"""The command line, ``python -m repro COMMAND``:

* ``run [SCENARIO]`` runs one named preset (``-o`` writes its result as JSON);
* ``study`` runs a sweep through the resumable execution plane;
* ``list`` prints the preset names.

Exit codes: 0 success; 1 study items failed (checkpointed progress is
kept: fix the cause and ``--resume``); 2 configuration error.  ``study``
imports the study plane inside its handler, so ``run`` loads no more than a
scenario run does.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.io import atomic_write_text
from repro.core.registry import lookup
from repro.experiments.config import ScenarioConfig
from repro.experiments.results import format_table
from repro.experiments.scenarios import available_scenarios, build_named_scenario
from repro.experiments.smoke import smoke_scaled
from repro.transport.registry import TRANSPORTS

#: ``run`` options named after the ScenarioConfig field each one overrides.
_RUN_OVERRIDES = ("metrics", "metrics_interval", "packet_target", "seed",
                  "max_sim_time")


def _run(args: argparse.Namespace) -> int:
    overrides = {name: getattr(args, name) for name in _RUN_OVERRIDES
                 if getattr(args, name) is not None}
    scenario = build_named_scenario(args.scenario, **overrides)
    result = scenario.run()
    print(f"{result.name}: {result.delivered_packets} packets in "
          f"{result.simulated_time:.1f} s simulated, aggregate goodput "
          f"{result.aggregate_goodput_kbps:.1f} kbit/s")
    sim = scenario.sim
    print(f"{sim.events_processed + sim.edges_in_place} handlers run: "
          f"{sim.events_processed} events through the queue, "
          f"{sim.edges_in_place} signal edges in place")
    if result.timeseries is not None:
        print(f"{len(result.timeseries)} time series collected:")
        for name, data in sorted(result.timeseries.items()):
            values = data["values"]
            if values:
                unit = f" {data['unit']}" if data.get("unit") else ""
                print(f"  {name}: {len(values)} samples, "
                      f"last {values[-1]:.4g}{unit}")
    if args.output is not None:
        atomic_write_text(args.output, json.dumps(result.to_dict(), indent=2,
                                                  sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0


def _parse_axis_value(text: str) -> object:
    """Parse one ``--axis`` value: int, then float, then bare string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _parse_axis(argument: str) -> Tuple[str, List[object]]:
    """Parse one ``--axis KEY=V1,V2,...`` argument."""
    key, sep, values = argument.partition("=")
    if not (sep and key and values):
        raise ConfigurationError(
            f"--axis expects KEY=V1,V2,... (got {argument!r})")
    return key, [_parse_axis_value(v) for v in values.split(",") if v]


def _progress_printer(stream):
    """A live one-line progress callback: rewritten in place on a TTY,
    one line per change otherwise, so CI logs stay readable."""
    tty = stream.isatty()
    last = [None]

    def show(snapshot) -> None:
        text = snapshot.describe()
        if text != last[0]:
            last[0] = text
            print(f"\r{text}\x1b[K" if tty else text, end="" if tty else "\n",
                  file=stream, flush=True)

    return show


def _study(args: argparse.Namespace) -> int:
    from repro.experiments.exec import StudyExecutionError
    from repro.experiments.study import SweepSpec, run_study
    from repro.topology.registry import TOPOLOGIES

    if args.resume and args.store is None:
        raise ConfigurationError("--resume requires --store DIR")
    if args.resume and not args.store.is_dir():
        raise ConfigurationError(
            f"nothing to resume: store directory {args.store} does not "
            "exist (run once with --store to create it)")
    topology = lookup(TOPOLOGIES, "topology", args.topology)
    axes: Dict[str, Sequence[object]] = {"variant": args.variants}
    if args.hops is not None:
        axes["hops"] = args.hops
    elif topology == "chain":
        axes["hops"] = smoke_scaled([2, 4], [2, 3])
    axes.update(_parse_axis(axis) for axis in args.axis)
    spec = SweepSpec(
        name="cli-study", topology=topology, axes=axes,
        base=ScenarioConfig(bandwidth_mbps=args.bandwidth,
                            packet_target=args.packets),
        replications=args.replications, base_seed=args.seed)

    progress = None if args.quiet else _progress_printer(sys.stdout)
    started = time.perf_counter()
    try:
        study = run_study(spec, max_workers=args.max_workers, store=args.store,
                          progress=progress)
    except StudyExecutionError as exc:
        if progress is not None:
            print()
        print(f"study failed: {exc}", file=sys.stderr)
        if args.store is not None:
            print(f"({len(exc.partial.points)} point(s) with completed "
                  f"replications are checkpointed in {args.store}; fix the "
                  "cause and --resume)", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    if progress is not None:
        print()

    rows, short = [], 0
    for point in study.points:
        interval = point.goodput_interval
        label = ", ".join(
            f"{k}={TRANSPORTS[v].label if k == 'variant' else v}"
            for k, v in point.values.items())
        if not all(run.reached_packet_target for run in point.runs):
            label += " *"
            short += 1
        rows.append([label, interval.mean / 1000.0,
                     interval.half_width / 1000.0])
    print(format_table(["point", "goodput [kbit/s]", "± 95% CI"], rows))
    if short:
        print(f"* {short} point(s) ended short of the {args.packets}-packet "
              "target in at least one seed (max_sim_time reached or traffic "
              "ran out)")
    print(f"\n{len(study.points)} points × {spec.replications} seed(s) "
          f"in {elapsed:.1f} s"
          + (f" (store: {args.store})" if args.store else ""))
    if args.save is not None:
        print(f"study written to {study.save(args.save)}")
    return 0


def _list(args: argparse.Namespace) -> int:
    print("\n".join(available_scenarios()))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run scenarios and studies of the multihop TCP simulator.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")

    run = commands.add_parser("run", help="run one named scenario")
    run.set_defaults(handler=_run)
    run.add_argument("scenario", nargs="?", default="chain7-vegas-2mbps",
                     help="preset name (default: %(default)s)")
    run.add_argument("--metrics", action="store_const", const=True,
                     help="record time series (cwnd, queues, energy)")
    run.add_argument("--metrics-interval", type=float, metavar="S",
                     help="probe sampling cadence in simulated seconds")
    run.add_argument("--packets", dest="packet_target", type=int, metavar="N",
                     help="override the packet target")
    run.add_argument("--seed", type=int)
    run.add_argument("--max-sim-time", type=float, metavar="S")
    run.add_argument("-o", "--output", type=Path,
                     help="write ScenarioResult.to_dict() as JSON here")

    study = commands.add_parser("study", help="run a sweep, resumably")
    study.set_defaults(handler=_study)
    study.add_argument("--topology", default="chain", help="topology family")
    study.add_argument("--variants", nargs="+", default=["vegas", "newreno"])
    study.add_argument("--hops", type=int, nargs="+",
                       help="chain default: 2 4 (smoke: 2 3)")
    study.add_argument("--axis", action="append", default=[],
                       metavar="KEY=V1,V2", help="extra sweep axis "
                       "(repeatable); values parse as int, float, then str")
    study.add_argument("--packets", type=int, default=smoke_scaled(250, 30),
                       help="delivered packets per run (default: %(default)s)")
    study.add_argument("--replications", type=int, default=smoke_scaled(3, 2),
                       help="seeds per sweep point (default: %(default)s)")
    study.add_argument("--bandwidth", type=float, default=2.0, help="Mbit/s")
    study.add_argument("--seed", type=int, help="seed of replication 0")
    study.add_argument("--max-workers", type=int, help="process-pool size, "
                       "at least 1 (default: every core); 1 runs in-process")
    study.add_argument("--store", type=Path, metavar="DIR",
                       help="checkpointed result store (enables --resume)")
    study.add_argument("--resume", action="store_true")
    study.add_argument("--save", type=Path, metavar="PATH",
                       help="write the StudyResult as JSON here")
    study.add_argument("--quiet", action="store_true",
                       help="no live progress line")

    listing = commands.add_parser("list", help="print the preset names")
    listing.set_defaults(handler=_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the command in ``argv`` (default: ``sys.argv[1:]``)."""
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
