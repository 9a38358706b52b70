"""One scenario, one fresh interpreter, one JSON line.

``python -m benchmarks.ledger.child <workload> --seed S [--traced]``

A fresh process per run makes ``peak_rss_mb`` per-workload, keeps heap state
from leaking between repeats and makes ``setup_s`` what a CLI user pays.
Garbage collection stays at its default.  Untraced, the child installs no
hook at all; ``--traced`` adds the instruments of :mod:`.trace`.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()      # child start: set-up is everything from here

import argparse
import hashlib
import json
import re
import resource
import sys
from collections import Counter
from typing import Dict, Mapping, Optional

from benchmarks.ledger.registry import OUT_DIR, WORKLOADS, Workload

_INSTANCE = re.compile(r"\.(?:node|bus|flow)\d+(?=\.)")

#: Counter families that describe what the protocols did.  ``phy.*`` and the
#: engine's event counts are left out on purpose: a cut in per-receiver PHY
#: events must be able to keep the fingerprint while events per frame fall.
_PROTOCOL_FAMILIES = ("mac.", "route.", "tcp.", "link.wired.")


def family_totals(metrics: Mapping[str, float]) -> Dict[str, float]:
    """Counters summed over nodes, buses and flows: ``mac.rts_tx`` etc."""
    totals: Counter = Counter()
    for name, value in metrics.items():
        totals[_INSTANCE.sub("", name)] += value
    return dict(totals)


def sim_fingerprint(result, totals: Mapping[str, float]) -> str:
    """sha256 over protocol-level outputs only."""
    payload = {
        "flows": [[flow.delivered_packets, flow.retransmissions,
                   flow.goodput_bps, flow.average_window]
                  for flow in result.flows],
        "mac_frames_sent": result.mac_frames_sent,
        "false_route_failures": result.false_route_failures,
        "simulated_time": result.simulated_time,
        "totals": sorted((name, value) for name, value in totals.items()
                         if name.startswith(_PROTOCOL_FAMILIES)),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def result_layers(result, totals: Mapping[str, float], events: int) -> Dict[str, float]:
    """Per-layer numbers read off the run's own ``ScenarioResult``."""
    get = lambda name: totals.get(name, 0.0)
    pkts = result.delivered_packets
    corrupted = get("phy.frames_corrupted")
    return {
        "core.events_per_pkt": _ratio(events, pkts),
        "transport.goodput_kbps": result.aggregate_goodput_kbps,
        "phy.frames_sent": get("phy.frames_sent"),
        "phy.corrupted_share": _ratio(corrupted, get("phy.frames_received") + corrupted),
        "mac.frames_per_pkt": _ratio(result.mac_frames_sent, pkts),
        "mac.attempts_per_success": _ratio(get("mac.data_tx_attempts"),
                                           get("mac.data_tx_success")),
        "mac.response_timeouts": get("mac.rts_timeouts") + get("mac.ack_timeouts"),
        "mac.retry_drops": get("mac.data_dropped_retry"),
        "routing.control_per_pkt": _ratio(get("route.control_packets_sent"), pkts),
        "routing.discoveries": get("route.route_discoveries"),
        "routing.false_route_failures": get("route.false_route_failures"),
        "routing.drops": (get("route.packets_dropped_no_route")
                          + get("route.packets_dropped_link_failure")
                          + get("route.packets_dropped_queue_full")
                          + get("route.unknown_subnet_drops")),
        "transport.retx_per_pkt": _ratio(get("tcp.retransmissions"), pkts),
        "transport.timeouts": get("tcp.timeouts"),
        "transport.acks_per_pkt": _ratio(get("tcp.acks_sent"), pkts),
        "transport.avg_window": result.average_window,
        "link.wired_frames": get("link.wired.frames_sent"),
        "link.wired_collisions": get("link.wired.collisions"),
        "mobility.updates": get("mobility.updates"),
        "mobility.link_changes": get("mobility.links_formed") + get("mobility.links_broken"),
    }


def run_once(workload: Workload, seed: int, traced: bool = False,
             started: Optional[float] = None) -> dict:
    """Build and run ``workload`` once; return the child's report."""
    started = time.perf_counter() if started is None else started
    from repro.experiments import build_named_scenario
    from repro.net.packet import reset_packet_ids
    imported = time.perf_counter()

    def build():
        reset_packet_ids()
        return build_named_scenario(workload.preset, seed=seed, **workload.overrides)

    if traced:
        from benchmarks.ledger.trace import run_traced
        scenario, result, timing, layers, detail = run_traced(build)
    else:
        scenario = build()
        built = time.perf_counter()
        result = scenario.run()
        timing = {"build_s": built - imported,
                  "wall_s": time.perf_counter() - built}
        layers, detail = {}, None

    events = scenario.sim.events_processed
    totals = family_totals(result.metrics)
    frames = totals.get("phy.frames_sent", 0.0) + totals.get("link.wired.frames_sent", 0.0)
    layers = {**result_layers(result, totals, events), **layers,
              "experiments.wall_s": timing["wall_s"],
              "experiments.import_s": imported - started,
              "experiments.build_s": timing["build_s"]}
    report = {
        "workload": workload.name, "seed": seed, "traced": traced,
        "wall_s": timing["wall_s"],
        "setup_s": (imported - started) + timing["build_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": events,
        "frames": int(frames),
        "delivered": result.delivered_packets,
        "reached_packet_target": result.reached_packet_target,
        "simulated_time": result.simulated_time,
        "sim_fingerprint": sim_fingerprint(result, totals),
        "layers": layers,
    }
    if detail is not None:
        report["trace_detail"] = detail
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger.child")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    report = run_once(WORKLOADS[args.workload], args.seed, args.traced, _STARTED)
    detail = report.pop("trace_detail", None)
    if detail is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace_{args.workload}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    **detail}))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
