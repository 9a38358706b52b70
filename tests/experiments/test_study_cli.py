"""Tests for the ``python -m repro study`` command line."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


def run_args(*extra: str) -> list:
    """A minimal fast study invocation."""
    return ["study", "--variants", "vegas", "--hops", "2", "--packets", "15",
            "--replications", "1", "--quiet", *extra]


class TestErrors:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_max_workers_below_one_exits_2(self, workers, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(run_args("--max-workers", workers,
                             "--store", str(store))) == 2
        assert "max_workers must be at least 1" in capsys.readouterr().err
        assert not store.exists()

    def test_unknown_topology_exits_2(self, capsys):
        assert main(run_args("--topology", "torus")) == 2
        assert capsys.readouterr().err

    def test_resume_without_store_exits_2(self, capsys):
        assert main(run_args("--resume")) == 2
        assert "--store" in capsys.readouterr().err

    def test_resume_with_missing_store_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(run_args("--resume", "--store", str(missing))) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_bad_axis_syntax_exits_2(self, capsys):
        assert main(run_args("--axis", "hops")) == 2
        assert "--axis expects" in capsys.readouterr().err

    def test_unknown_variant_exits_2_without_traceback(self, capsys):
        assert main(["study", "--variants", "vegsa", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unknown transport variant 'vegsa'" in err
        assert "did you mean 'vegas'" in err
        assert "Traceback" not in err

    def test_backbone_under_aodv_exits_2_before_any_item_runs(
            self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["study", "--topology", "backbone", "--packets", "20",
                     "--quiet", "--store", str(store)]) == 2
        assert "--axis routing=static" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("extra", [["--axis", "nosuch=1"],
                                       ["--topology", "grid", "--hops", "2"],
                                       ["--axis", "link_layer=wired"]])
    def test_axis_the_topology_does_not_take_exits_2(self, extra, capsys):
        assert main(["study", "--quiet", *extra]) == 2
        err = capsys.readouterr().err
        assert "unexpected keyword argument" in err
        assert "--resume" not in err


class TestRuns:
    def test_run_prints_goodput_table(self, capsys):
        assert main(run_args("--max-workers", "1")) == 0
        out = capsys.readouterr().out
        assert "goodput [kbit/s]" in out
        assert "variant=Vegas, hops=2" in out

    def test_every_variant_prints_its_label(self, capsys):
        args = ["study", "--variants", "vegas", "newreno-at-optwin",
                "--axis", "newreno_max_cwnd=3.0", "--hops", "2",
                "--packets", "15", "--replications", "1", "--quiet",
                "--max-workers", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "variant=Vegas, hops=2" in out
        assert "variant=NewReno ACK Thinning Optimal Window, hops=2" in out

    def test_progress_line_rendered_without_quiet(self, capsys):
        args = [a for a in run_args("--max-workers", "1") if a != "--quiet"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1/1 done" in out

    def test_save_writes_study_json(self, tmp_path, capsys):
        out_path = tmp_path / "study.json"
        assert main(run_args("--max-workers", "1",
                             "--save", str(out_path))) == 0
        data = json.loads(out_path.read_text())
        assert data["schema"] == 1
        assert len(data["points"]) == 1

    def test_backbone_spine_rate_axis_sweeps_and_snapshots_wired_metrics(
            self, tmp_path, capsys):
        # The backbone topology carries its link plan; the spine rate is a
        # builder parameter, so the axis reaches the bus it describes.
        out_path = tmp_path / "study.json"
        assert main(["study", "--topology", "backbone", "--variants",
                     "newreno", "--packets", "15", "--replications", "1",
                     "--quiet", "--max-workers", "1",
                     "--axis", "routing=static", "--axis", "cell_hops=1",
                     "--axis", "wired_rate_mbps=10,100",
                     "--save", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        by_rate = {point["values"]["wired_rate_mbps"]: point["runs"][0]["metrics"]
                   for point in data["points"]}
        assert set(by_rate) == {10, 100}
        for wired in by_rate.values():
            assert wired["link.wired.bus0.frames_delivered"] > 0
            assert wired["link.wired.node0.frames_sent"] > 0
        assert (by_rate[100]["link.wired.bus0.utilization"]
                < by_rate[10]["link.wired.bus0.utilization"] / 5)
        chain_path = tmp_path / "chain.json"
        assert main(run_args("--max-workers", "1",
                             "--save", str(chain_path))) == 0
        wireless = json.loads(chain_path.read_text())["points"][0]["runs"][0]["metrics"]
        assert not any(name.startswith("link.wired.") for name in wireless)

    def test_fail_after_exits_3_then_resume_succeeds(self, tmp_path, capsys):
        store = tmp_path / "store"
        args = run_args("--max-workers", "1", "--store", str(store))
        assert main([*args, "--fail-after", "0"]) == 3
        assert "simulated crash" in capsys.readouterr().err
        assert main([*args, "--resume"]) == 0
        assert "goodput" in capsys.readouterr().out
