"""Tests for the mobility-model name table."""

from __future__ import annotations

import inspect

import pytest

from repro.core.errors import ConfigurationError
from repro.core.registry import lookup
from repro.mobility.models import (
    ManhattanGridMobility,
    RandomWalkMobility,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.mobility.registry import MOBILITY_MODELS


class TestBuiltinModels:
    def test_builtin_names(self):
        assert sorted(MOBILITY_MODELS) == [
            "manhattan", "random-walk", "random-waypoint", "static"]

    def test_static_builds_immobile_model(self):
        model = MOBILITY_MODELS["static"]()
        assert isinstance(model, StaticMobility)
        assert model.mobile is False

    def test_waypoint_build_maps_uniform_knobs(self):
        model = MOBILITY_MODELS["random-waypoint"](speed=30.0, pause=4.0)
        assert isinstance(model, RandomWaypointMobility)
        assert model.max_speed == 30.0
        assert model.pause_time == 4.0

    def test_walk_build_maps_pause_to_turn_interval(self):
        model = MOBILITY_MODELS["random-walk"](speed=3.0, pause=7.0)
        assert isinstance(model, RandomWalkMobility)
        assert model.speed == 3.0
        assert model.turn_interval == 7.0

    def test_manhattan_build_maps_pause_to_intersection_stop(self):
        model = MOBILITY_MODELS["manhattan"](speed=6.0, pause=3.0)
        assert isinstance(model, ManhattanGridMobility)
        assert model.speed == 6.0
        assert model.pause_time == 3.0

    def test_waypoint_build_accepts_any_positive_speed(self):
        # Speeds below the 0.1 m/s min-speed floor must still build (the
        # floor is clamped to the configured speed, never above it).
        model = MOBILITY_MODELS["random-waypoint"](speed=0.05)
        assert model.min_speed == model.max_speed == 0.05

    @pytest.mark.parametrize("name, speed, pause", [
        ("static", 5.0, 2.0),
        ("random-waypoint", 10.0, 2.0),
        ("random-walk", 5.0, 5.0),
        ("manhattan", 8.0, 1.0),
    ])
    def test_defaults_fill_unset_knobs(self, name, speed, pause):
        builder = MOBILITY_MODELS[name]
        knobs = inspect.signature(builder).parameters
        assert (knobs["speed"].default, knobs["pause"].default) == (speed, pause)
        assert vars(builder()) == vars(builder(speed=speed, pause=pause))

    def test_lookup_is_case_insensitive(self):
        assert lookup(MOBILITY_MODELS, "mobility model",
                      " Random-Waypoint ") == "random-waypoint"

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="registered: manhattan"):
            lookup(MOBILITY_MODELS, "mobility model", "teleport")
