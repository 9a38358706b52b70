"""``tools/calls_per_frame.py``: the count it makes and its ceilings."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "calls_per_frame.py"
_spec = importlib.util.spec_from_file_location("calls_per_frame", _PATH)
calls_per_frame = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calls_per_frame)

VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
ARGS = ["chain7_vegas_at", "--seed", "3", "--packet-target", "20"]


def test_counts_calls_during_the_run_only():
    calls, frames, by_function = calls_per_frame.count_calls(
        "chain7_vegas_at", 3, packet_target=20, top=5)
    assert frames > 100
    # Every frame is at least a transmit, a broadcast and the end chain.
    assert 3 * frames < calls < 200 * frames
    assert sum(by_function.values()) == calls
    assert sys.getprofile() is None


def test_the_same_run_counts_the_same():
    first = calls_per_frame.count_calls("chain7_vegas_at", 3, packet_target=20)[:2]
    assert calls_per_frame.count_calls("chain7_vegas_at", 3, packet_target=20)[:2] == first


def test_ceilings_are_per_interpreter_version(capsys):
    assert calls_per_frame.main(ARGS) == 0
    assert calls_per_frame.main(ARGS + ["--ceiling", f"{VERSION}=1000"]) == 0
    assert calls_per_frame.main(ARGS + ["--ceiling", f"{VERSION}=1"]) == 1
    assert calls_per_frame.main(ARGS + ["--ceiling", "2.7=1000"]) == 2
    assert "EXCEEDED" in capsys.readouterr().out


def test_a_ceiling_needs_a_version():
    with pytest.raises(SystemExit):
        calls_per_frame.main(ARGS + ["--ceiling", "68"])
