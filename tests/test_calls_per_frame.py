"""``tools/calls_per_frame.py``: the count it makes and its ceilings."""

from __future__ import annotations

import gc
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "calls_per_frame.py"
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


def test_collections_are_not_counted():
    """Where a collection falls depends on the allocations before it, and a
    ``gc.callbacks`` entry (hypothesis installs one) is a Python call: with
    one installed and collections every few allocations, the count holds."""
    plain = calls_per_frame.count_calls("chain7_vegas_at", 3, packet_target=20)[:2]
    thresholds = gc.get_threshold()
    callback = lambda phase, info: None
    gc.set_threshold(10)
    gc.callbacks.append(callback)
    try:
        busy = calls_per_frame.count_calls("chain7_vegas_at", 3, packet_target=20)[:2]
    finally:
        gc.callbacks.remove(callback)
        gc.set_threshold(*thresholds)
    assert busy == plain
    assert gc.isenabled()


#: Two readings of one run, the first ever taken in its interpreter.
FIRST_AND_SECOND_COUNT = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("calls_per_frame", {str(_PATH)!r})
calls_per_frame = importlib.util.module_from_spec(spec)
spec.loader.exec_module(calls_per_frame)
for _ in range(2):
    print(calls_per_frame.count_calls("chain7_vegas_at", 3, packet_target=20)[:2])
"""


def test_the_first_count_in_a_process_is_the_second():
    """What a process does once (pattern compiles, lazy imports) is not
    counted: in a fresh interpreter the first reading equals the second."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    done = subprocess.run([sys.executable, "-c", FIRST_AND_SECOND_COUNT], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    first, second = done.stdout.splitlines()
    assert first == second


def test_ceilings_are_per_interpreter_version(capsys):
    assert calls_per_frame.main(ARGS) == 0
    assert calls_per_frame.main(ARGS + ["--ceiling", f"{VERSION}=1000"]) == 0
    assert calls_per_frame.main(ARGS + ["--ceiling", f"{VERSION}=1"]) == 1
    assert calls_per_frame.main(ARGS + ["--ceiling", "2.7=1000"]) == 2
    assert "EXCEEDED" in capsys.readouterr().out


def test_a_ceiling_needs_a_version():
    with pytest.raises(SystemExit):
        calls_per_frame.main(ARGS + ["--ceiling", "68"])
