"""Tests for the named mobility registry."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.mobility.models import (
    RandomWalkMobility,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.mobility.registry import (
    MobilityProfile,
    get_mobility,
    mobility_names,
    mobility_profiles,
    register_mobility,
    unregister_mobility,
)


class TestBuiltinProfiles:
    def test_builtins_registered(self):
        assert {"static", "random-waypoint", "random-walk"}.issubset(mobility_names())

    def test_static_builds_immobile_model(self):
        model = get_mobility("static").build()
        assert isinstance(model, StaticMobility)
        assert model.mobile is False

    def test_waypoint_build_maps_uniform_knobs(self):
        model = get_mobility("random-waypoint").build(speed=30.0, pause=4.0)
        assert isinstance(model, RandomWaypointMobility)
        assert model.max_speed == 30.0
        assert model.pause_time == 4.0

    def test_walk_build_maps_pause_to_turn_interval(self):
        model = get_mobility("random-walk").build(speed=3.0, pause=7.0)
        assert isinstance(model, RandomWalkMobility)
        assert model.speed == 3.0
        assert model.turn_interval == 7.0

    def test_waypoint_build_accepts_any_positive_speed(self):
        # Speeds below the 0.1 m/s min-speed floor must still build (the
        # floor is clamped to the configured speed, never above it).
        model = get_mobility("random-waypoint").build(speed=0.05)
        assert model.min_speed == model.max_speed == 0.05

    def test_defaults_fill_unset_knobs(self):
        profile = get_mobility("random-waypoint")
        model = profile.build()
        assert model.max_speed == profile.default_speed
        assert model.pause_time == profile.default_pause

    def test_lookup_is_case_insensitive(self):
        assert get_mobility(" Random-Waypoint ") is get_mobility("random-waypoint")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            get_mobility("teleport")


class TestRegistration:
    def test_register_and_unregister(self):
        profile = MobilityProfile(name="test-drift",
                                  builder=lambda speed, pause: StaticMobility())
        register_mobility(profile)
        try:
            assert get_mobility("test-drift") is profile
        finally:
            unregister_mobility("test-drift")
        with pytest.raises(ConfigurationError):
            get_mobility("test-drift")

    def test_duplicate_rejected_without_replace(self):
        with pytest.raises(ConfigurationError):
            register_mobility(MobilityProfile(
                name="static", builder=lambda speed, pause: StaticMobility()))

    def test_replace_overwrites(self):
        original = get_mobility("static")
        replacement = MobilityProfile(name="static",
                                      builder=lambda speed, pause: StaticMobility(),
                                      description="replaced")
        register_mobility(replacement, replace=True)
        try:
            assert get_mobility("static").description == "replaced"
        finally:
            register_mobility(original, replace=True)

    def test_unregister_unknown_is_noop(self):
        before = mobility_names()
        unregister_mobility("no-such-model")
        assert mobility_names() == before

    def test_profiles_sorted_by_name(self):
        names = [profile.name for profile in mobility_profiles()]
        assert names == sorted(names)
