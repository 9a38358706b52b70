"""The kernel profile the performance ledger looks up.

``benchmarks/ledger/trace.py`` finds the class whose ``schedule`` /
``schedule_at`` it counts through :func:`kernel_backend_profiles`; these
tests hold that lookup to the simulator scenarios actually run on.
"""

from __future__ import annotations

from benchmarks.ledger import trace
from repro.core.backends import kernel_backend_profiles
from repro.core.engine import Simulator
from repro.experiments.scenarios import build_named_scenario


class TestProfile:
    def test_one_profile_named_reference(self):
        assert [profile.name for profile in kernel_backend_profiles()] == ["reference"]

    def test_create_builds_a_new_simulator_per_call(self):
        (profile,) = kernel_backend_profiles()
        first, second = profile.create(), profile.create()
        assert type(first) is Simulator and type(second) is Simulator
        assert first is not second

    def test_the_ledger_wraps_the_simulator(self):
        assert trace.kernel_classes() == [Simulator]

    def test_scenarios_run_on_the_profiled_class(self):
        (profile,) = kernel_backend_profiles()
        scenario = build_named_scenario("chain7-vegas-2mbps", packet_target=10)
        assert type(scenario.sim) is type(profile.create())

    def test_class_level_wrappers_see_every_queue_entry(self, monkeypatch):
        """Wrappers on the class's ``schedule`` / ``schedule_at``, as the
        ledger installs them, see every event that enters the queue, a
        reserved key included; an edge claimed in place enters none."""
        (profile,) = kernel_backend_profiles()
        kernel_class = type(profile.create())
        seen = []
        for name in ("schedule", "schedule_at"):
            def wrapper(self, when, callback, *args, _name=name,
                        _original=getattr(kernel_class, name)):
                seen.append(_name)
                return _original(self, when, callback, *args)
            monkeypatch.setattr(kernel_class, name, wrapper)

        sim = profile.create()
        fired = []

        def head():
            first = sim.reserve_sequences(2)
            sim.schedule_reserved(2.0, first + 1, fired.append, "queued")
            if sim.claim(1.0, first):
                fired.append("in place")

        sim.schedule(1.0, head)
        sim.run()
        assert fired == ["in place", "queued"]
        assert seen == ["schedule", "schedule_at"]
        assert (sim.events_processed, sim.edges_in_place) == (2, 1)
