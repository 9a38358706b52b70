"""Tier-1 checks of the figure table: which runs each row reads.  No simulation."""

from __future__ import annotations

import pytest

import repro.experiments.study as study_module
from benchmarks.bench_figures import (
    CAPTURE,
    CHAIN_COMPARISON,
    FIGURES,
    fig10_optimum_inside_sweep,
    points,
    routing_false_failures_need_aodv,
)
from repro.experiments.config import DEFAULT_HOP_COUNTS

BY_ID = {figure.id: figure for figure in FIGURES}


@pytest.fixture(autouse=True)
def pinned_code(monkeypatch):
    # Fingerprints then depend on the table alone, not on the source tree.
    monkeypatch.setattr(study_module, "_code_fingerprint", lambda: "pinned")


def fingerprints(figure_id, **where):
    """Run keys of the points a row plots whose coordinates match ``where``."""
    return {sweep.fingerprint(point.values, sweep.base.seed)
            for sweep, point, coords in points(BY_ID[figure_id])
            if all(coords[key] == value for key, value in where.items())}


def test_row_ids_are_unique():
    assert len(BY_ID) == len(FIGURES)


def test_table_reads_93_distinct_runs():
    sweeps = {id(sweep): sweep for figure in FIGURES for sweep in figure.sweeps}
    keys = {sweep.fingerprint(point.values, seed)
            for sweep in sweeps.values() for point in sweep.points()
            for seed in sweep.seeds()}
    assert len(keys) == 93


def test_figures_6_to_9_and_energy_read_one_sweep():
    for figure_id in ("fig6", "fig7", "fig8", "fig9", "energy-proxy"):
        sweeps = BY_ID[figure_id].sweeps
        assert len(sweeps) == 1 and sweeps[0] is CHAIN_COMPARISON


def test_fig5_plain_series_is_fig2_alpha_2():
    plain = fingerprints("fig5", variant="vegas")
    assert len(plain) == len(DEFAULT_HOP_COUNTS)
    assert plain == fingerprints("fig2", vegas_alpha=2.0)


def test_ablation_baselines_are_fig4_and_fig11_points():
    capture = fingerprints("ablation-capture", capture_threshold=CAPTURE)
    aodv = fingerprints("ablation-routing", routing="aodv")
    assert len(capture) == len(aodv) == 1
    assert capture == fingerprints("fig4", vegas_alpha=2.0, bandwidth_mbps=2.0)
    assert aodv == fingerprints("fig11", variant="newreno", bandwidth_mbps=2.0)


def test_optimum_at_an_end_of_the_pacing_sweep_fails():
    with pytest.raises(AssertionError):
        fig10_optimum_inside_sweep({"goodput [kbit/s]": {0.02: 300.0, 0.03: 250.0, 0.04: 200.0}})


def test_routing_ablation_without_false_failures_fails():
    with pytest.raises(AssertionError):
        routing_false_failures_need_aodv({"false route failures": {"aodv": 0, "static": 0},
                                          "goodput [kbit/s]": {"aodv": 1.0, "static": 1.0}})
