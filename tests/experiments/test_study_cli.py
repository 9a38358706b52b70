"""Tests for the ``python -m repro study`` command line."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.experiments.runner import Scenario


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

    def test_there_is_no_crash_hook_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(run_args("--fail-after", "1"))
        assert excinfo.value.code == 2
        assert "--fail-after" in capsys.readouterr().err


class TestRuns:
    def test_run_prints_goodput_table(self, capsys):
        assert main(run_args("--max-workers", "1")) == 0
        out = capsys.readouterr().out
        assert "goodput [kbit/s]" in out
        assert "variant=Vegas, hops=2" in out
        # every point reached its packet target: nothing is marked
        assert "*" not in out

    def test_points_short_of_their_packet_target_are_marked(self, tmp_path,
                                                           capsys):
        out_path = tmp_path / "study.json"
        assert main(["study", "--variants", "vegas", "--hops", "2", "4",
                     "--packets", "250", "--axis", "max_sim_time=1.0",
                     "--replications", "1", "--quiet", "--max-workers", "1",
                     "--save", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "variant=Vegas, hops=2, max_sim_time=1.0 *" in out
        assert "variant=Vegas, hops=4, max_sim_time=1.0 *" in out
        assert ("* 2 point(s) ended short of the 250-packet target in at "
                "least one seed") in out
        runs = [point["runs"][0]
                for point in json.loads(out_path.read_text())["points"]]
        assert [run["reached_packet_target"] for run in runs] == [False, False]
        assert all(run["delivered_packets"] < 250 for run in runs)

    def test_every_variant_prints_its_label(self, capsys):
        args = ["study", "--variants", "vegas", "newreno-at-optwin",
                "--axis", "newreno_max_cwnd=3.0", "--hops", "2",
                "--packets", "15", "--replications", "1", "--quiet",
                "--max-workers", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "variant=Vegas, hops=2" in out
        assert "variant=NewReno ACK Thinning Optimal Window, hops=2" in out

    def test_chain_in_any_spelling_gets_the_default_hops_axis(self, capsys):
        assert main(["study", "--topology", " Chain", "--variants", "VEGAS",
                     "--packets", "15", "--replications", "1", "--quiet",
                     "--max-workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "variant=Vegas, hops=2" in out

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

    def test_failed_item_exits_1_then_resume_succeeds(self, tmp_path, capsys,
                                                      monkeypatch):
        real_run = Scenario.run

        def doomed_at_three_hops(scenario):
            if len(scenario.spec.topology.node_ids) == 4:
                raise RuntimeError("doomed run")
            return real_run(scenario)

        store = tmp_path / "store"
        storeless = ["study", "--variants", "vegas", "--hops", "2", "3",
                     "--packets", "15", "--replications", "1", "--quiet",
                     "--max-workers", "1"]
        args = [*storeless, "--store", str(store)]
        with monkeypatch.context() as patch:
            patch.setattr(Scenario, "run", doomed_at_three_hops)
            # without a store nothing is checkpointed, so nothing to resume
            assert main(storeless) == 1
            assert "--resume" not in capsys.readouterr().err
            assert main(args) == 1
        err = capsys.readouterr().err
        assert "study failed: 1 work item(s) failed" in err
        assert "doomed run" in err and "--resume" in err
        assert len(list(store.glob("*.json"))) == 1
        assert main([*args, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "hops=2" in out and "hops=3" in out
