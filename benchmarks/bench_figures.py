"""The paper's figures and tables as one table, checked by one bench.

Each :class:`Figure` row of :data:`FIGURES` names the sweeps it reads, the
axes its series and x values run along, its metric, the shape the paper
reports and the checks that hold that shape.  The sweeps are module
constants shared between rows — Figures 6–9 and the energy proxy read one
set of runs — and each goes through :func:`run_study` at most once per
session.  Its points land in the result store ``benchmarks/.study-cache``
(``REPRO_STUDY_CACHE`` moves it, an empty value disables it), which also
answers the points two sweeps have in common, so a cold run simulates 93
scenarios and a warm one none.  Run every row, or one by its id::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_figures.py -q -s
    PYTHONPATH=src:. python -m pytest benchmarks/bench_figures.py -q -s -k fig6

Scale: the paper delivers 110 000 packets per point on ns-2; the constants
below deliver hundreds, so the checks hold the paper's orderings and trends,
not its magnitudes.  Table 2 is analytic and has no row: tier-1 pins it
(``tests/mac/test_timing.py``, ``tests/experiments/test_paced_udp.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

import pytest

from repro.core.statistics import mean
from repro.experiments.config import DEFAULT_HOP_COUNTS, PAPER_BANDWIDTHS, ScenarioConfig
from repro.experiments.paced_udp import default_sweep_intervals
from repro.experiments.results import ScenarioResult, format_table
from repro.experiments.study import StudyResult, SweepPoint, SweepSpec, run_study
from repro.topology.random_topology import random_topology
from repro.transport.registry import TRANSPORTS

#: Delivered packets per single-flow chain point (paper: 110 000).
PACKET_TARGET = 250
#: Delivered packets, all flows together, per grid or random point.
MULTIFLOW_PACKET_TARGET = 450
#: Master seed of every run.
SEED = 3
#: Vegas α values of Figures 2–5.
ALPHAS = (2.0, 3.0, 4.0)
#: Flows on the grid (three horizontal, three vertical) and the random field.
FLOW_COUNT = 6
#: The random field, scaled down from the paper's 120 nodes on 2500 × 1000 m²
#: with ten flows.  One placement serves every variant, as in the paper.
RANDOM_FIELD = random_topology(node_count=60, area=(1800.0, 800.0),
                               flow_count=FLOW_COUNT, seed=7)
#: PHY capture threshold of ns-2 (``CPThresh_``), and one no frame reaches.
CAPTURE, NO_CAPTURE = 10.0, 1e9

#: Variant line-ups, in the paper's legend order.
CHAIN_VARIANTS = ("vegas", "newreno", "newreno-at", "paced-udp")
MULTIFLOW_VARIANTS = ("vegas", "newreno", "vegas-at", "newreno-at")
BANDWIDTH_VARIANTS = MULTIFLOW_VARIANTS + ("newreno-optwin", "paced-udp")

CHAIN = ScenarioConfig(variant="vegas", bandwidth_mbps=2.0, packet_target=PACKET_TARGET,
                       max_sim_time=400.0, seed=SEED)
MULTIFLOW = ScenarioConfig(packet_target=MULTIFLOW_PACKET_TARGET, max_sim_time=300.0,
                           seed=SEED)

# ----------------------------------------------------------------------
# Sweeps: each is run once and read by every row that names it.
# ----------------------------------------------------------------------
CHAIN_COMPARISON = SweepSpec(
    name="chain-comparison", topology="chain",
    axes={"variant": CHAIN_VARIANTS, "hops": DEFAULT_HOP_COUNTS}, base=CHAIN)
VEGAS_ALPHA = SweepSpec(
    name="vegas-alpha", topology="chain",
    axes={"vegas_alpha": ALPHAS, "hops": DEFAULT_HOP_COUNTS}, base=CHAIN)
VEGAS_THINNING = SweepSpec(
    name="vegas-thinning", topology="chain",
    axes={"vegas_alpha": ALPHAS, "hops": DEFAULT_HOP_COUNTS},
    base=replace(CHAIN, variant="vegas-at"))
VEGAS_ALPHA_BANDWIDTH = SweepSpec(
    name="vegas-alpha-bandwidth", topology="chain", topology_params={"hops": 7},
    axes={"vegas_alpha": ALPHAS, "bandwidth_mbps": PAPER_BANDWIDTHS}, base=CHAIN)
PACED_UDP = SweepSpec(
    name="paced-udp", topology="chain", topology_params={"hops": 7},
    axes={"udp_interval": tuple(default_sweep_intervals(2.0, points=7, spread=0.4))},
    base=replace(CHAIN, variant="paced-udp"))
BANDWIDTH_COMPARISON = SweepSpec(
    name="bandwidth-comparison", topology="chain", topology_params={"hops": 7},
    axes={"variant": BANDWIDTH_VARIANTS, "bandwidth_mbps": PAPER_BANDWIDTHS}, base=CHAIN)
GRID = SweepSpec(
    name="grid", topology="grid",
    axes={"variant": MULTIFLOW_VARIANTS, "bandwidth_mbps": PAPER_BANDWIDTHS}, base=MULTIFLOW)
RANDOM = SweepSpec(
    name="random", topology=RANDOM_FIELD,
    axes={"variant": MULTIFLOW_VARIANTS, "bandwidth_mbps": PAPER_BANDWIDTHS}, base=MULTIFLOW)
CAPTURE_ABLATION = SweepSpec(
    name="capture-ablation", topology="chain", topology_params={"hops": 7},
    axes={"capture_threshold": (CAPTURE, NO_CAPTURE)}, base=CHAIN)
ROUTING_ABLATION = SweepSpec(
    name="routing-ablation", topology="chain", topology_params={"hops": 7},
    axes={"routing": ("aodv", "static")}, base=replace(CHAIN, variant="newreno"))

_cache = os.environ.get("REPRO_STUDY_CACHE")
#: Result store every sweep reads and fills; None runs without one.
CACHE_DIR = Path(__file__).resolve().parent / ".study-cache" if _cache is None else _cache or None

_STUDIES: Dict[str, StudyResult] = {}


def study(sweep: SweepSpec) -> StudyResult:
    """The result of ``sweep``, run through :func:`run_study` once per session."""
    if sweep.name not in _STUDIES:
        _STUDIES[sweep.name] = run_study(sweep, store=CACHE_DIR)
    return _STUDIES[sweep.name]


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
#: ``{series: {x: value}}``, what every check reads.
Table = Dict[object, Dict[object, object]]


@dataclass(frozen=True)
class Figure:
    """One artefact of the paper's evaluation.

    A point's *coords* are its config fields plus its axis values.  The
    series are the ``series`` coordinate of each point or, when ``series``
    is None, the keys of the dict ``metric`` returns; ``keep`` drops the
    points the artefact does not plot.
    """

    id: str
    title: str
    paper: str
    sweeps: Tuple[SweepSpec, ...]
    series: Optional[str]
    x: str
    metric: Callable[[ScenarioResult], object]
    checks: Tuple[Callable[[Table], None], ...]
    keep: Callable[[Mapping[str, object]], bool] = lambda coords: True


def label(axis: str, coords: Mapping[str, object]) -> object:
    """A coordinate as the table keys it: variants by their label, and α
    with the Vegas variant it tunes."""
    value = coords[axis]
    if axis == "vegas_alpha":
        return f"{TRANSPORTS[coords['variant']].label} α={value:g}"
    return TRANSPORTS[value].label if axis == "variant" else value


def points(figure: Figure) -> Iterator[Tuple[SweepSpec, SweepPoint, Dict[str, object]]]:
    """``(sweep, point, coords)`` of every sweep point ``figure`` plots."""
    for sweep in figure.sweeps:
        for point in sweep.points():
            coords = {**vars(sweep.config_for(point.values, sweep.base.seed)),
                      **point.values}
            if figure.keep(coords):
                yield sweep, point, coords


def reshape(figure: Figure, run: Callable[[SweepSpec], StudyResult] = study) -> Table:
    """``figure``'s runs as ``{series: {x: value}}``."""
    table: Table = {}
    for sweep, point, coords in points(figure):
        value = figure.metric(run(sweep).point(**point.values).run)
        cells = value if figure.series is None else {label(figure.series, coords): value}
        for series, cell in cells.items():
            table.setdefault(series, {})[label(figure.x, coords)] = cell
    return table


# ----------------------------------------------------------------------
# Checks: each asserts one part of a row's paper shape.
# ----------------------------------------------------------------------
def falls_with_hops(t):
    for series in t.values():
        values = list(series.values())
        assert values[0] > values[-1]


def all_positive(t):
    assert all(v > 0 for series in t.values() for v in series.values())


def sublinear_in_bandwidth(t):
    """More bandwidth, more goodput, but less than 5.5 times as much: the
    control frames stay at 1 Mbit/s."""
    for series in t.values():
        assert series[11.0] > series[2.0]
        assert series[11.0] / series[2.0] < 5.5


def positive_at_11(t):
    assert all(series[11.0] > 0 for series in t.values())


def same_flow_count(t):
    flows = [s for s in t if s.startswith("FTP")]
    assert flows and all(t[f].keys() == t["Jain"].keys() for f in flows)


def vegas_fairer_per_flow(t):
    assert t["Jain"]["Vegas"] >= t["Jain"]["NewReno"] * 0.9


def jain_in_range(t):
    assert all(1.0 / FLOW_COUNT - 1e-9 <= v <= 1.0 + 1e-9
               for series in t.values() for v in series.values())


def vegas_fairer_at_11(t):
    assert t["Vegas"][11.0] >= t["NewReno"][11.0] * 0.9


def fig3_window_grows_with_alpha(t):
    windows = [mean(series.values()) for series in t.values()]
    assert windows[0] <= windows[-1] + 0.5
    assert all(1.0 <= w <= 20.0 for w in windows)


def fig5_thinning_gains_little(t):
    plain, thinned = mean(t["Vegas α=2"].values()), mean(t["Vegas ACK Thinning α=2"].values())
    assert thinned > 0.5 * plain
    assert plain > 0.5 * thinned


def fig6_vegas_beats_newreno(t):
    vegas, newreno = ([g for h, g in t[v].items() if h >= 4] for v in ("Vegas", "NewReno"))
    assert mean(vegas) > mean(newreno)


def fig7_vegas_retransmits_least(t):
    vegas = mean(t["Vegas"].values())
    assert vegas < mean(t["NewReno"].values())
    assert vegas < 0.1


def fig8_vegas_window_small(t):
    vegas = mean(t["Vegas"].values())
    assert vegas < mean(t["NewReno"].values())
    assert 2.0 < vegas < 8.0


def fig9_vegas_fewer_false_failures(t):
    assert sum(t["Vegas"].values()) <= sum(t["NewReno"].values())


def fig10_optimum_inside_sweep(t):
    goodputs = list(t["goodput [kbit/s]"].values())
    assert 0 < goodputs.index(max(goodputs)) < len(goodputs) - 1


def fig10_fast_pacing_drops_more(t):
    drops = list(t["LL drop prob"].values())
    assert drops[0] >= drops[-1]


def fig11_vegas_beats_newreno_at_2(t):
    assert t["Vegas"][2.0] > t["NewReno"][2.0]


def fig12_vegas_retransmits_least(t):
    assert t["Vegas"][2.0] <= t["NewReno"][2.0]
    assert all(v < 0.1 for v in t["Vegas"].values())


def fig13_windows_ordered(t):
    for bandwidth, vegas in t["Vegas"].items():
        assert vegas < t["NewReno"][bandwidth]
        assert t["NewReno Optimal Window"][bandwidth] <= 3.01


def fig14_drops_small(t):
    assert all(0.0 <= v <= 0.5 for series in t.values() for v in series.values())
    assert mean(t["Vegas"].values()) <= mean(t["NewReno"].values()) + 0.01


def fig18_no_loss_at_11(t):
    assert all(series[11.0] >= series[2.0] for series in t.values())


def capture_only_removes_losses(t):
    assert t["LL drop prob"][NO_CAPTURE] >= t["LL drop prob"][CAPTURE]
    assert t["goodput [kbit/s]"][CAPTURE] >= t["goodput [kbit/s]"][NO_CAPTURE]


def routing_false_failures_need_aodv(t):
    assert t["false route failures"]["static"] == 0
    assert t["false route failures"]["aodv"] > 0
    assert all(g > 0 for g in t["goodput [kbit/s]"].values())


def energy_vegas_spends_no_more(t):
    tx = t["TX J/KB"]
    assert "Vegas" in tx and "NewReno" in tx
    assert tx["Vegas"] <= tx["NewReno"] * 1.1


goodput = attrgetter("aggregate_goodput_kbps")
window = attrgetter("average_window")
retransmissions = attrgetter("average_retransmissions_per_packet")
drop_probability = attrgetter("link_layer_drop_probability")


def per_flow(r: ScenarioResult) -> Dict[str, float]:
    cells = {f"FTP{i}": flow.goodput_kbps for i, flow in enumerate(r.flows, 1)}
    return {**cells, "aggregate": r.aggregate_goodput_kbps, "Jain": r.fairness_index}


def energy(r: ScenarioResult) -> Dict[str, float]:
    if r.energy is None:
        return {}
    return {"TX J/KB": r.energy.transmit_joules_per_kilobyte,
            "total J/KB": r.energy.joules_per_kilobyte, "MAC frames sent": r.mac_frames_sent}


def tcp_only(coords):
    return coords["variant"] != "paced-udp"


FIGURES: Tuple[Figure, ...] = (
    Figure("fig2", "Figure 2: Vegas goodput [kbit/s] vs. number of hops (2 Mbit/s)",
           "α = 2 achieves the highest goodput between 4 and 20 hops; for longer chains "
           "all α values converge.  Goodput decreases with hop count.",
           (VEGAS_ALPHA,), "vegas_alpha", "hops", goodput, (falls_with_hops, all_positive)),
    Figure("fig3", "Figure 3: Vegas average window [packets] vs. number of hops (2 Mbit/s)",
           "the average window grows with α (α = 2 keeps the smallest window), and stays "
           "in the single digits across the whole hop range.",
           (VEGAS_ALPHA,), "vegas_alpha", "hops", window, (fig3_window_grows_with_alpha,)),
    Figure("fig4", "Figure 4: 7-hop chain — Vegas goodput [kbit/s] for different bandwidths",
           "goodput grows sub-linearly with bandwidth (control frames stay at 1 Mbit/s); "
           "α = 2 is best at 2 Mbit/s and the α values converge at 11 Mbit/s.",
           (VEGAS_ALPHA_BANDWIDTH,), "vegas_alpha", "bandwidth_mbps", goodput,
           (sublinear_in_bandwidth,)),
    Figure("fig5", "Figure 5: Vegas with ACK thinning — goodput [kbit/s] vs. hops (2 Mbit/s)",
           "at 2 Mbit/s ACK thinning gives Vegas essentially no goodput advantage (plain "
           "Vegas α = 2 is slightly better for h > 6), because Vegas already keeps its "
           "window near the optimum.",
           (VEGAS_ALPHA, VEGAS_THINNING), "vegas_alpha", "hops", goodput,
           (fig5_thinning_gains_little,),
           keep=lambda c: c["variant"] == "vegas-at" or c["vegas_alpha"] == 2.0),
    Figure("fig6", "Figure 6: goodput [kbit/s] vs. number of hops (2 Mbit/s)",
           "paced UDP is the upper bound; Vegas achieves up to 83 % more goodput than "
           "NewReno (≈ 75 % at 8 hops); NewReno + ACK thinning sits close to (slightly "
           "below) Vegas; goodput decreases with hop count for every protocol.",
           (CHAIN_COMPARISON,), "variant", "hops", goodput,
           (fig6_vegas_beats_newreno, falls_with_hops)),
    Figure("fig7", "Figure 7: average retransmissions per packet vs. hops (2 Mbit/s)",
           "Vegas causes up to 99 % fewer retransmissions than NewReno and stays near zero "
           "at every hop count; NewReno + ACK thinning is considerably lower than plain "
           "NewReno.",
           (CHAIN_COMPARISON,), "variant", "hops", retransmissions,
           (fig7_vegas_retransmits_least,), keep=tcp_only),
    Figure("fig8", "Figure 8: average window size [packets] vs. hops (2 Mbit/s)",
           "Vegas keeps its window between roughly 3.5 and 5.5 packets (close to the "
           "optimum of h/4 for long chains), while NewReno's window is much larger; ACK "
           "thinning shrinks NewReno's window.",
           (CHAIN_COMPARISON,), "variant", "hops", window, (fig8_vegas_window_small,),
           keep=tcp_only),
    Figure("fig9", "Figure 9: false route failures vs. hops (2 Mbit/s)",
           "NewReno causes 93-100 % more false route failures than Vegas, and paced UDP "
           "(which never backs off) also causes many.",
           (CHAIN_COMPARISON,), "variant", "hops", attrgetter("false_route_failures"),
           (fig9_vegas_fewer_false_failures,)),
    Figure("fig10", "Figure 10: paced UDP vs. packet inter-sending time [s] (7 hops, 2 Mbit/s)",
           "goodput peaks at an optimal pacing interval (t_opt ≈ 35.7 ms in ns-2), drops "
           "rapidly when t < t_opt (hidden-terminal contention, link-layer drops) and "
           "degrades gracefully when t > t_opt (the source simply idles).",
           (PACED_UDP,), None, "udp_interval",
           lambda r: {"goodput [kbit/s]": goodput(r), "LL drop prob": drop_probability(r)},
           (fig10_optimum_inside_sweep, fig10_fast_pacing_drops_more)),
    Figure("fig11", "Figure 11: 7-hop chain — goodput [kbit/s] for different bandwidths",
           "goodput grows sub-linearly with bandwidth for every variant; paced UDP is the "
           "upper bound; Vegas matches NewReno-with-optimal-window and clearly beats plain "
           "NewReno; the ACK-thinning variants pull ahead of their plain counterparts as "
           "bandwidth increases.",
           (BANDWIDTH_COMPARISON,), "variant", "bandwidth_mbps", goodput,
           (sublinear_in_bandwidth, fig11_vegas_beats_newreno_at_2)),
    Figure("fig12", "Figure 12: 7-hop chain — retransmissions per packet for different "
           "bandwidths",
           "retransmissions decrease with increasing bandwidth for every TCP variant "
           "(shorter transmissions collide less), and the Vegas variants stay far below "
           "the NewReno variants throughout.",
           (BANDWIDTH_COMPARISON,), "variant", "bandwidth_mbps", retransmissions,
           (fig12_vegas_retransmits_least,), keep=tcp_only),
    Figure("fig13", "Figure 13: 7-hop chain — average window size [packets] for different "
           "bandwidths",
           "Vegas and NewReno-with-optimal-window keep small windows (≈ 3-5 packets) at "
           "every bandwidth; plain NewReno's window is several times larger; ACK thinning "
           "reduces NewReno's window.",
           (BANDWIDTH_COMPARISON,), "variant", "bandwidth_mbps", window,
           (fig13_windows_ordered,), keep=tcp_only),
    Figure("fig14", "Figure 14: 7-hop chain — link-layer dropping probability",
           "drop probability decreases with increasing bandwidth for every variant "
           "(shorter frames collide less); Vegas with ACK thinning has the fewest "
           "link-layer drops; paced UDP (fixed-rate, no backoff) shows the largest.",
           (BANDWIDTH_COMPARISON,), "variant", "bandwidth_mbps", drop_probability,
           (fig14_drops_small,)),
    Figure("fig16", "Figure 16: grid topology — aggregate goodput [kbit/s] for different "
           "bandwidths",
           "Vegas and NewReno achieve comparable aggregate goodput (NewReno slightly ahead "
           "at 2 Mbit/s); ACK thinning improves both as bandwidth grows; aggregate goodput "
           "increases (sub-linearly) with bandwidth.",
           (GRID,), "variant", "bandwidth_mbps", goodput,
           (sublinear_in_bandwidth, positive_at_11)),
    Figure("fig17", "Figure 17: grid topology — per-flow goodput [kbit/s] at 11 Mbit/s",
           "with NewReno a couple of flows capture most of the bandwidth and the rest "
           "starve; Vegas distributes goodput more evenly at a similar aggregate; Vegas + "
           "ACK thinning achieves the most even split.",
           (GRID,), None, "variant", per_flow, (vegas_fairer_per_flow, same_flow_count),
           keep=lambda c: c["bandwidth_mbps"] == 11.0),
    Figure("fig18", "Figure 18: random topology — aggregate goodput [kbit/s] for different "
           "bandwidths",
           "(120 nodes on 2500 × 1000 m², 10 flows in the paper; a smaller field here) "
           "Vegas ≈ NewReno in aggregate goodput, ACK thinning helps with increasing "
           "bandwidth, goodput grows sub-linearly.",
           (RANDOM,), "variant", "bandwidth_mbps", goodput,
           (positive_at_11, fig18_no_loss_at_11)),
    Figure("fig19", "Figure 19: random topology — per-flow goodput [kbit/s] at 11 Mbit/s",
           "with NewReno one flow grabs most of the bandwidth and some flows starve "
           "completely; Vegas spreads goodput more evenly; Vegas + ACK thinning is the "
           "most even without sacrificing aggregate goodput.",
           (RANDOM,), None, "variant", per_flow, (same_flow_count, vegas_fairer_per_flow),
           keep=lambda c: c["bandwidth_mbps"] == 11.0),
    Figure("table3", "Table 3: grid topology — Jain's fairness index",
           "Vegas is fairer than NewReno at every bandwidth; ACK thinning improves "
           "fairness further (Vegas + ACK thinning is best, 0.69-0.94); fairness improves "
           "with increasing bandwidth for every variant.",
           (GRID,), "variant", "bandwidth_mbps", attrgetter("fairness_index"),
           (jain_in_range, vegas_fairer_at_11)),
    Figure("table4", "Table 4: random topology — Jain's fairness index",
           "same ordering as Table 3 — Vegas fairer than NewReno, ACK thinning fairer "
           "still, and fairness improving with bandwidth (Vegas + ACK thinning reaches "
           "0.62-0.90).",
           (RANDOM,), "variant", "bandwidth_mbps", attrgetter("fairness_index"),
           (jain_in_range, vegas_fairer_at_11)),
    Figure("ablation-capture", "Ablation: PHY capture threshold on the 7-hop chain (Vegas, "
           "2 Mbit/s)",
           "(not a paper figure) like ns-2, a locked frame survives a ≥ 10x weaker "
           "overlapping signal; without capture every overlap collides, the chain is far "
           "lossier for every protocol and most of the Vegas-NewReno contrast is gone.",
           (CAPTURE_ABLATION,), None, "capture_threshold",
           lambda r: {"goodput [kbit/s]": goodput(r), "LL drop prob": drop_probability(r),
                      "rtx/pkt": retransmissions(r)},
           (capture_only_removes_losses,)),
    Figure("ablation-routing", "Ablation: routing protocol on the 7-hop chain (NewReno, "
           "2 Mbit/s)",
           "(not a paper figure) false route failures (Figure 9) exist only because AODV "
           "tears routes down on MAC retry drops; static routes lose the packet but never "
           "the route.",
           (ROUTING_ABLATION,), None, "routing",
           lambda r: {"goodput [kbit/s]": goodput(r),
                      "false route failures": r.false_route_failures,
                      "rtx/pkt": retransmissions(r)},
           (routing_false_failures_need_aodv,)),
    Figure("energy-proxy", f"Energy proxy: {max(DEFAULT_HOP_COUNTS)}-hop chain at 2 Mbit/s "
           "(lower is better)",
           "(Sections 4.3 and 5, not plotted) Vegas' fewer retransmissions and smaller "
           "window \"result in significant savings of energy consumption\": radio energy "
           "per delivered kilobyte under the linear model of repro.phy.energy.",
           (CHAIN_COMPARISON,), None, "variant", energy, (energy_vegas_spends_no_more,),
           keep=lambda c: c["hops"] == max(DEFAULT_HOP_COUNTS)),
)


@pytest.mark.parametrize("figure", FIGURES, ids=attrgetter("id"))
def test_figure(figure):
    table = reshape(figure)
    xs = list(dict.fromkeys(x for series in table.values() for x in series))
    print(f"\n=== {figure.title} ===\nPaper: {figure.paper}")
    print(format_table([figure.x, *table],
                       [[x, *(series.get(x, "") for series in table.values())] for x in xs]))
    for check in figure.checks:
        check(table)
