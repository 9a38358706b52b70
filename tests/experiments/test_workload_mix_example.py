"""``examples/workload_mix.py`` at smoke scale shows what it is for.

A smoke run stops at the first 5-s check of its packet target, so the
example's late flow start and scripted outage must fall inside that slice;
the example exits non-zero when the outage did not happen or the latecomer
delivered nothing.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_smoke_run_has_the_outage_and_a_delivering_latecomer():
    env = dict(os.environ, REPRO_SMOKE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(ROOT / "examples" / "workload_mix.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "timeline: 1 scripted outage(s)" in done.stdout
    latecomer = re.search(r"^2\s+Vegas\s+latecomer\s+\S+\s+(\d+)", done.stdout, re.M)
    assert latecomer is not None and int(latecomer.group(1)) > 0
