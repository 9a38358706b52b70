"""A transport variant has one spelling: its key in ``TRANSPORTS``, a ``str``.

Configs, workload flows, sweep points and stored point results all carry the
key; the display label is not a lookup key.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.study import PointResult, SweepSpec
from repro.experiments.workload import FlowSpec
from repro.transport.registry import TRANSPORTS

KEYS = sorted(TRANSPORTS)


def assert_key(value: object, key: str) -> None:
    assert value == key and type(value) is str


@pytest.mark.parametrize("key", KEYS)
class TestOneSpelling:
    def test_config_holds_the_key(self, key):
        assert_key(ScenarioConfig(variant=key).variant, key)

    def test_workload_flow_holds_the_key(self, key):
        assert_key(FlowSpec(0, 1, variant=key).variant, key)

    def test_sweep_points_and_stored_results_hold_the_key(self, key):
        spec = SweepSpec(axes={"variant": [key.upper()], "hops": [2]},
                         base=ScenarioConfig(variant=key))
        (point,) = spec.points()
        assert_key(point.values["variant"], key)
        stored = json.loads(json.dumps(
            PointResult(values=point.values, seeds=[], runs=[]).to_dict()))
        assert_key(PointResult.from_dict(stored).values["variant"], key)


@pytest.mark.parametrize("key", [key for key in KEYS
                                 if TRANSPORTS[key].label.lower() != key])
def test_a_label_is_not_a_spelling(key):
    with pytest.raises(ConfigurationError, match="registered: "):
        ScenarioConfig(variant=TRANSPORTS[key].label)
