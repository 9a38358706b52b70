"""Tests for the named mobility registry."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.mobility.models import (
    RandomWalkMobility,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.mobility.registry import MOBILITY_MODELS, MobilityProfile


class TestBuiltinProfiles:
    def test_builtins_registered(self):
        assert {"static", "random-waypoint", "random-walk"}.issubset(
            MOBILITY_MODELS.names())

    def test_static_builds_immobile_model(self):
        model = MOBILITY_MODELS.get("static").build()
        assert isinstance(model, StaticMobility)
        assert model.mobile is False

    def test_waypoint_build_maps_uniform_knobs(self):
        model = MOBILITY_MODELS.get("random-waypoint").build(speed=30.0, pause=4.0)
        assert isinstance(model, RandomWaypointMobility)
        assert model.max_speed == 30.0
        assert model.pause_time == 4.0

    def test_walk_build_maps_pause_to_turn_interval(self):
        model = MOBILITY_MODELS.get("random-walk").build(speed=3.0, pause=7.0)
        assert isinstance(model, RandomWalkMobility)
        assert model.speed == 3.0
        assert model.turn_interval == 7.0

    def test_waypoint_build_accepts_any_positive_speed(self):
        # Speeds below the 0.1 m/s min-speed floor must still build (the
        # floor is clamped to the configured speed, never above it).
        model = MOBILITY_MODELS.get("random-waypoint").build(speed=0.05)
        assert model.min_speed == model.max_speed == 0.05

    def test_defaults_fill_unset_knobs(self):
        profile = MOBILITY_MODELS.get("random-waypoint")
        model = profile.build()
        assert model.max_speed == profile.default_speed
        assert model.pause_time == profile.default_pause

    def test_lookup_is_case_insensitive(self):
        profile = MOBILITY_MODELS.get("random-waypoint")
        assert MOBILITY_MODELS.get(" Random-Waypoint ") is profile

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            MOBILITY_MODELS.get("teleport")


class TestRegistration:
    def test_register_and_unregister(self):
        profile = MobilityProfile(name="test-drift",
                                  builder=lambda speed, pause: StaticMobility())
        MOBILITY_MODELS.register(profile)
        try:
            assert MOBILITY_MODELS.get("test-drift") is profile
        finally:
            MOBILITY_MODELS.unregister("test-drift")
        with pytest.raises(ConfigurationError):
            MOBILITY_MODELS.get("test-drift")

    def test_duplicate_rejected_without_replace(self):
        with pytest.raises(ConfigurationError):
            MOBILITY_MODELS.register(MobilityProfile(
                name="static", builder=lambda speed, pause: StaticMobility()))

    def test_replace_overwrites(self):
        original = MOBILITY_MODELS.get("static")
        replacement = MobilityProfile(name="static",
                                      builder=lambda speed, pause: StaticMobility())
        MOBILITY_MODELS.register(replacement, replace=True)
        try:
            assert MOBILITY_MODELS.get("static") is replacement
        finally:
            MOBILITY_MODELS.register(original, replace=True)

    def test_unregister_unknown_is_noop(self):
        before = MOBILITY_MODELS.names()
        MOBILITY_MODELS.unregister("no-such-model")
        assert MOBILITY_MODELS.names() == before

    def test_profiles_sorted_by_name(self):
        names = [profile.name for profile in MOBILITY_MODELS.values()]
        assert names == sorted(names)
