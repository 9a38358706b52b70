"""Differential test: the channel's in-place signal edges vs one event each.

:class:`OracleChannel` delivers the way the channel did before transmissions
walked their own edges: every receiver gets an event for its signal start and
another for its signal end — the end of a quiet signal too, which the real
channel leaves to the radio to settle — the sender one for its own end of the
frame, and every receiver a packet copy of its own.  It exists only here.  A
seeded world — random or lattice geometry plus a hermit nobody can hear,
reactive listeners that transmit back, simultaneous senders, frames shorter
than the spread of propagation delays, nodes going down (senders in
mid-frame among them) and moving while frames are in the air, runs cut by
``until`` and ``stop()`` — is played once on each channel
(the oracle always on a new simulator, the real channel on each kernel of
``tests.helpers.KERNELS``), and every listener callback ``(time, node,
callback, uid)``, every ``RadioStats`` field (each radio settled first), the
clock, the handler count and the next free sequence number must agree.

Listeners that switch ``Radio.notify_carrier`` off and on at random make the
radios owe the ends of quiet signals.  An owed end is not a handler, so those
worlds' checkpoints leave the handler count out: against the oracle, and
against listeners that leave the flag on and ignore the callbacks themselves.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import Simulator
from repro.net.interfaces import PhyListener
from repro.net.packet import Packet, reset_packet_ids
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import Position
from repro.phy.radio import Radio, RadioStats


class _SendersEndAlone:
    """What the oracle hands ``Radio.transmit`` to queue for the end of the
    frame, under the key drawn there: the sender's end and nothing behind it
    but the frame's completion."""

    def __init__(self, sender, on_sent):
        self.sender = sender
        self.on_sent = on_sent

    def run_ends(self):
        self.sender._transmit_complete()
        if self.on_sent is not None:
            self.on_sent()


class OracleChannel(WirelessChannel):
    """One event per edge, the sender's end and every quiet signal's end
    included; one packet copy per receiver."""

    quiet_ends = 0

    def broadcast(self, sender, packet, size, duration, on_sent=None):
        self.stats.transmissions += 1
        self.stats.bytes_transmitted += size
        deliveries = self._cached_payload(self._delivery_cache, sender.node_id)
        if deliveries is None:
            deliveries = self._build_deliveries(sender.node_id)
        offsets = deliveries.offsets
        in_registration_order = sorted(range(len(offsets)), key=offsets.__getitem__)
        self.stats.deliveries_attempted += len(in_registration_order)
        for k in in_registration_order:
            self.sim.schedule(deliveries.delays[k], self._signal_start,
                              deliveries.radios[k], packet.copy(), duration,
                              deliveries.receivable[k], deliveries.powers[k])
        return _SendersEndAlone(sender, on_sent)

    def _signal_start(self, radio, packet, duration, receivable, power):
        signal = radio.signal_start(packet, duration, receivable, power)
        if signal is None:
            # A quiet signal: take back the end the radio would owe, the one
            # with the newest sequence (owed ends are kept in key order).
            signal = max(radio._owed, key=lambda owed: owed.end_sequence)
            radio._owed.remove(signal)
            self.quiet_ends += 1
        # The sequence signal_start has just taken, used on the spot: the
        # plain schedule(duration, ...) the radio used to end with.
        self.sim.schedule_reserved(signal.end_time, signal.end_sequence,
                                   radio._signal_end, signal)


class Talker(PhyListener):
    """Logs every callback and, like a MAC, sometimes answers on the air."""

    def __init__(self, world, radio):
        self.world = world
        self.radio = radio

    def _note(self, callback, uid=None):
        world = self.world
        world.log.append((world.sim.now, self.radio.node_id, callback, uid))
        if world.budget > 0 and world.rng.random() < 0.3:
            world.budget -= 1
            delay = world.rng.choice([0.0, 1e-6, 10e-6, 50e-6, 3e-4])
            world.sim.schedule(delay, world.transmit, self.radio)

    def on_frame_received(self, packet):
        self._note("frame", packet.uid)

    def on_carrier_busy(self):
        self._note("busy")

    def on_carrier_idle(self):
        self._note("idle")


class FlagTalker(Talker):
    """A talker that, like a MAC, wants carrier callbacks only now and then.

    ``gated`` ones tell the radio (``Radio.notify_carrier``); the others leave
    the radio's flag on and drop the callbacks they did not want themselves.
    Either way the world must see the same thing.
    """

    gated = True

    def __init__(self, world, radio):
        super().__init__(world, radio)
        self.watching = True

    def _note(self, callback, uid=None):
        super()._note(callback, uid)
        if self.world.rng.random() < 0.25:
            self.switch()

    def switch(self):
        self.watching = not self.watching
        if self.gated:
            if self.watching and self.radio._owed:
                self.world.watched_owing += 1
            self.radio.notify_carrier = self.watching
        self.world.log.append((self.world.sim.now, self.radio.node_id,
                               "watching" if self.watching else "not watching",
                               self.radio.carrier_busy))

    def on_carrier_busy(self):
        assert self.watching or not self.gated
        if self.watching:
            super().on_carrier_busy()

    def on_carrier_idle(self):
        assert self.watching or not self.gated
        if self.watching:
            super().on_carrier_idle()


class DeafenedTalker(FlagTalker):
    gated = False


class World:
    """One seeded scenario on one channel class and one simulator."""

    DURATIONS = [1e-7, 1e-6, 3e-6, 2e-4, 2e-4, 1e-3]    # the first three are shorter
                                                        # than 550 m of propagation
    #: Out of everybody's range, wherever ``disturb`` moves it: a sender with
    #: no receiver at all.
    HERMIT = (9000.0, 9000.0)

    def __init__(self, channel_class, sim, seed, positions, talker_class=Talker):
        reset_packet_ids()
        self.rng = random.Random(seed)
        self.sim = sim
        self.channel = channel_class(self.sim)
        self.log = []
        self.budget = 60
        self.downed_on_air = 0
        #: Nodes this world has scripted off the air.
        self.down = set()
        #: Times a listener turned the carrier flag on while ends were owed.
        self.watched_owing = 0
        self.radios = []
        for node_id, (x, y) in enumerate(list(positions) + [self.HERMIT]):
            radio = Radio(self.sim, node_id, self.channel)
            self.channel.register(radio, Position(x, y))
            radio.listener = talker_class(self, radio)
            self.radios.append(radio)

    def transmit(self, radio):
        if not radio.is_transmitting:
            radio.transmit(Packet(payload_size=self.rng.randrange(1, 1500)),
                           self.rng.choice(self.DURATIONS))

    def disturb(self):
        rng, channel = self.rng, self.channel
        node = rng.randrange(len(self.radios))
        on_air = [radio.node_id for radio in self.radios if radio.is_transmitting]
        if on_air and rng.random() < 0.5:
            node = rng.choice(on_air)       # a sender goes down in mid-frame
            channel.set_node_down(node, down=True)
            self.down.add(node)
            self.downed_on_air += 1
        elif rng.random() < 0.5:
            self.down ^= {node}
            channel.set_node_down(node, down=node in self.down)
        else:
            old = channel.position_of(node)
            channel.set_positions({node: Position(old.x + rng.uniform(-300, 300),
                                                  old.y + rng.uniform(-300, 300))})

    def play(self, count_handlers=True):
        """Run the world in 16 cuts, by ``until`` and by ``stop()`` at a
        random time; with ``count_handlers`` off, the checkpoints leave the
        handler count out."""
        rng, sim = self.rng, self.sim
        for _ in range(12):
            at = rng.choice([0.0, 0.0, 1e-4, 1e-4, 2.5e-4, 1e-3, 0.5])
            sim.schedule(at, self.transmit, rng.choice(self.radios))
        for _ in range(4):
            sim.schedule(rng.choice([1e-6, 1e-4, 1.5e-4, 3e-4, 1e-3]), self.disturb)
        for radio in self.radios:
            if isinstance(radio.listener, FlagTalker):
                sim.schedule(rng.choice([0.0, 1e-4, 2.5e-4, 1e-3]), radio.listener.switch)
        sim.schedule(rng.choice([1e-6, 2e-4, 1.1e-3]), sim.stop)
        checkpoints = []
        for step in range(16):
            if step % 3 == 0:
                sim.run(until=sim.now + rng.choice([1e-6, 5e-5, 2e-4, 1e-3]))
            elif step % 3 == 1:
                sim.schedule(rng.choice([0.0, 1e-6, 2e-5, 1e-4, 4e-4]), sim.stop)
                sim.run()
            else:
                sim.run(until=sim.now + 1.0)
            checkpoint = (len(self.log), sim.now, self.radio_stats())
            if count_handlers:
                checkpoint += (sim.events_processed + sim.edges_in_place,)
            checkpoints.append(checkpoint)
        return {
            "log": self.log,
            "checkpoints": checkpoints,
            "radio stats": self.radio_stats(),
            "channel stats": vars(self.channel.stats),
            "next sequence": sim.reserve_sequences(),
        }

    def radio_stats(self):
        """Every field of every radio's stats, each radio settled first."""
        for radio in self.radios:
            radio.settle()
        return [{field: getattr(radio.stats, field) for field in RadioStats.fields}
                for radio in self.radios]


def assert_same_as_oracle(make_sim, seed, positions, talker_class=Talker):
    gated = talker_class is FlagTalker
    oracle = World(OracleChannel, Simulator(), seed, positions, talker_class)
    expected = oracle.play(count_handlers=not gated)
    world = World(WirelessChannel, make_sim(), seed, positions, talker_class)
    actual = world.play(count_handlers=not gated)
    for key in expected:
        assert actual[key] == expected[key], key
    return oracle, world


def assert_carrier_flag_only_silences(make_sim, seed, positions):
    expected = World(WirelessChannel, make_sim(), seed, positions,
                     DeafenedTalker).play(count_handlers=False)
    world = World(WirelessChannel, make_sim(), seed, positions, FlagTalker)
    actual = world.play(count_handlers=False)
    for key in expected:
        assert actual[key] == expected[key], key
    return world


_metres = st.floats(min_value=0.0, max_value=900.0, allow_nan=False)
_scattered = st.lists(st.tuples(_metres, _metres), min_size=2, max_size=12)
#: Lattice points 200 m apart: most receivers tie with another on distance,
#: so equal-time edges are ordered by their sequence numbers alone.
_lattice = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                    min_size=2, max_size=10, unique=True).map(
    lambda cells: [(200.0 * x, 200.0 * y) for x, y in cells])


class TestAgainstOneEventPerEdge:
    @given(seed=st.integers(0, 2**32 - 1), positions=_scattered)
    @settings(max_examples=120, deadline=None)
    def test_scattered_nodes(self, make_sim, seed, positions):
        assert_same_as_oracle(make_sim, seed, positions)

    @given(seed=st.integers(0, 2**32 - 1), positions=_lattice)
    @settings(max_examples=120, deadline=None)
    def test_equidistant_receivers(self, make_sim, seed, positions):
        assert_same_as_oracle(make_sim, seed, positions)

    def test_the_worlds_exercise_what_they_claim_to(self, make_sim):
        """Most edges skip the queue, and the worlds are busy ones: the hermit
        sends to nobody, senders go down in mid-frame."""
        frames = in_place = handlers = hermit_frames = downed_on_air = 0
        for seed in range(30):
            _, world = assert_same_as_oracle(
                make_sim, seed, [(150.0 * (seed % 4 + i), 90.0 * i) for i in range(8)])
            frames += sum(1 for entry in world.log if entry[2] == "frame")
            in_place += world.sim.edges_in_place
            handlers += world.sim.events_processed + world.sim.edges_in_place
            hermit_frames += world.radios[-1].stats.frames_sent
            downed_on_air += world.downed_on_air
        assert frames > 100
        assert in_place > handlers // 4
        assert hermit_frames > 10 and downed_on_air > 10


class TestOwedEnds:
    """Listeners that switch the carrier flag at random, so quiet signals'
    ends are owed and some are queued again: the same world as one event
    per edge."""

    @given(seed=st.integers(0, 2**32 - 1), positions=_scattered)
    @settings(max_examples=100, deadline=None)
    def test_scattered_nodes(self, make_sim, seed, positions):
        assert_same_as_oracle(make_sim, seed, positions, FlagTalker)

    @given(seed=st.integers(0, 2**32 - 1), positions=_lattice)
    @settings(max_examples=100, deadline=None)
    def test_equidistant_receivers(self, make_sim, seed, positions):
        assert_same_as_oracle(make_sim, seed, positions, FlagTalker)

    def test_ends_are_owed_and_watched_again(self, make_sim):
        """A quarter of the signals or more are quiet, so their ends are
        owed, and listeners turn the flag back on while ends are owed."""
        frames = ends = owed = watched_owing = 0
        for seed in range(30):
            oracle, world = assert_same_as_oracle(
                make_sim, seed, [(150.0 * (seed % 4 + i), 90.0 * i) for i in range(8)],
                FlagTalker)
            frames += sum(1 for entry in world.log if entry[2] == "frame")
            ends += world.channel.stats.deliveries_attempted
            owed += oracle.channel.quiet_ends
            watched_owing += world.watched_owing
        assert frames > 100 and owed > ends // 4 and watched_owing > 30


class TestCarrierFlag:
    """``Radio.notify_carrier`` off means the listener is not called, and
    nothing else: same callbacks while it is on, same keys, same counters."""

    @given(seed=st.integers(0, 2**32 - 1), positions=_scattered)
    @settings(max_examples=60, deadline=None)
    def test_scattered_nodes(self, make_sim, seed, positions):
        assert_carrier_flag_only_silences(make_sim, seed, positions)

    @given(seed=st.integers(0, 2**32 - 1), positions=_lattice)
    @settings(max_examples=60, deadline=None)
    def test_equidistant_receivers(self, make_sim, seed, positions):
        assert_carrier_flag_only_silences(make_sim, seed, positions)

    def test_the_flag_is_off_much_of_the_time_and_callbacks_still_come(self, make_sim):
        silent = heard = 0
        for seed in range(30):
            world = assert_carrier_flag_only_silences(
                make_sim, seed, [(150.0 * (seed % 4 + i), 90.0 * i) for i in range(8)])
            silent += sum(1 for entry in world.log if entry[2] == "not watching")
            heard += sum(1 for entry in world.log if entry[2] in ("busy", "idle"))
        assert silent > 100 and heard > 100


def test_delays_that_round_to_one_arrival_time_start_in_sequence_order(make_sim):
    """Node 1 is a hair farther from the sender than node 2, so it comes
    second by delay; an hour into a run the two delays round to the same
    arrival time, and then node 1's smaller sequence number puts it first."""
    positions = [(0.0, 0.0), (200.00001, 0.0), (-200.0, 0.0)]
    logs = []
    for channel_class in (OracleChannel, WirelessChannel):
        world = World(channel_class, make_sim(), 0, positions)
        world.budget = 0
        sim, channel = world.sim, world.channel
        deliveries = channel._build_deliveries(0)
        (near, far), (near_delay, far_delay) = deliveries.radios, deliveries.delays
        assert (near.node_id, far.node_id) == (2, 1) and 0 < deliveries.tie_gap < 1e-13
        assert 4096.0 + near_delay == 4096.0 + far_delay
        for at in (1.0, 4096.0):
            sim.schedule_at(at, world.radios[0].transmit, Packet(), 1e-3)
        sim.run()
        logs.append(world.log)
    assert logs[0] == logs[1]
    busy = [(time, node) for time, node, callback, _ in logs[1]
            if callback == "busy" and node != 0]
    assert [node for _, node in busy] == [2, 1, 1, 2]
    assert busy[0][0] < busy[1][0] and busy[2][0] == busy[3][0]


class LineListener(PhyListener):
    """Logs every callback; the line's ``stopper`` calls ``stop()`` from its
    first carrier-busy callback, in the middle of the start chain."""

    def __init__(self, line, radio, stops):
        self.line = line
        self.radio = radio
        self.stops = stops

    def _note(self, callback, uid=None):
        self.line.note(self.radio.node_id, callback, uid)

    def on_frame_received(self, packet):
        self._note("frame", packet.uid)

    def on_carrier_busy(self):
        self._note("busy")
        if self.stops:
            self.stops = False
            self.line.sim.stop()

    def on_carrier_idle(self):
        self._note("idle")


class Line:
    """Node 0 at the origin, ``receivers`` more every 60 m along a line: the
    first four can decode it, the rest only sense it, and every listener
    keeps the carrier flag on, so every start and end is a handler."""

    RECEIVERS = 8
    #: Frame length: the ends start well after the last start.
    DURATION = 1e-3

    def __init__(self, channel_class, sim, stopper=None):
        reset_packet_ids()
        self.sim = sim
        self.channel = channel_class(sim)
        self.log = []
        #: ``sim.edges_in_place`` at each entry of ``log``.
        self.in_place = []
        self.radios = []
        for node_id in range(self.RECEIVERS + 1):
            radio = Radio(sim, node_id, self.channel)
            self.channel.register(radio, Position(60.0 * node_id, 0.0))
            radio.listener = LineListener(self, radio, stops=node_id == stopper)
            self.radios.append(radio)
        sim.schedule(0.0, self.radios[0].transmit, Packet(payload_size=10), self.DURATION)

    def note(self, node, callback, uid=None):
        self.log.append((self.sim.now, node, callback, uid))
        self.in_place.append(self.sim.edges_in_place)

    def checkpoint(self):
        sim = self.sim
        return {"log": list(self.log), "now": sim.now,
                "handlers": sim.events_processed + sim.edges_in_place,
                "edges in place": sim.edges_in_place,
                "in place at": list(self.in_place)}


def stop_from_a_carrier_callback(channel_class, sim):
    line = Line(channel_class, sim, stopper=3)
    checkpoints = []
    for _ in range(3):
        sim.run()
        checkpoints.append(line.checkpoint())
    return checkpoints


def uncut(channel_class, sim):
    line = Line(channel_class, sim)
    sim.run()
    return [line.checkpoint()]


def cut_at(horizon):
    """A play that runs the line to ``horizon``, then on to the end."""
    def play(channel_class, sim):
        line = Line(channel_class, sim)
        sim.run(until=horizon)
        checkpoints = [line.checkpoint()]
        sim.run()
        return checkpoints + [line.checkpoint()]
    return play


def edge_times(callback):
    """Receiver 2's and receiver 3's ``callback`` times in an uncut run:
    their signal starts for ``"busy"``, their ends for ``"idle"``."""
    (whole,) = uncut(OracleChannel, Simulator())
    times = {node: time for time, node, name, _ in whole["log"] if name == callback}
    return times[2], times[3]


def against_a_rival(callback, rival):
    """A play: the line's frame and one more event, the ``rival``, keyed
    against receiver 3's signal start (``"busy"``) or end (``"idle"``); its
    handler logs itself as node ``-1``.

    An earlier sequence is drawn before the run, so before the edge's; a later
    one after the edge's key is drawn: at the transmit call for a start, at
    the receiver's own start for an end, so from a handler at 0 or mid-frame.
    """
    previous, edge = edge_times(callback)
    time = {"later time": edge + (edge - previous) / 2,
            "earlier time": (previous + edge) / 2,
            "earlier time, cancelled": (previous + edge) / 2}.get(rival, edge)
    placed_at = 0.0 if callback == "busy" else Line.DURATION / 2

    def play(channel_class, sim):
        line = Line(channel_class, sim)

        def place():
            event = sim.schedule_at(time, line.note, -1, "rival")
            if rival.endswith("cancelled"):
                sim.cancel(event)

        if rival == "same time, earlier sequence":
            place()
        elif rival is not None:
            sim.schedule_at(placed_at, place)
        sim.run()
        return [line.checkpoint()]
    return play


def ran_in_place(checkpoint, node, callback):
    """Whether the edge behind ``node``'s ``callback`` ran in place: the
    count of edges in place went up by one since the one before it in its
    chain, node ``node - 1``'s."""
    keys = [entry[1:3] for entry in checkpoint["log"]]
    counts = checkpoint["in place at"]
    return (counts[keys.index((node, callback))]
            - counts[keys.index((node - 1, callback))]) == 1


def tombstones_in_the_chains(channel_class, sim):
    line = Line(channel_class, sim)
    # Between the third and fourth receivers' starts (400 m and 600 m of
    # propagation), and between two of their ends.
    for at in (5e-7, Line.DURATION + 5e-7):
        sim.cancel(sim.schedule_at(at, lambda: None))
    sim.run()
    return [line.checkpoint()]


class TestInPlaceHeadTest:
    """The chain loops decide in place whether the next edge runs: against
    one event per edge (same handlers at the same times) where a run is cut
    in mid-chain, a tombstone lies in the chain's span or another event's key
    is next to an edge's."""

    @staticmethod
    def assert_same(play, make_sim=Simulator):
        oracle = play(OracleChannel, Simulator())
        in_place = play(WirelessChannel, make_sim())
        assert len(in_place) == len(oracle)
        for actual, expected in zip(in_place, oracle):
            for key in ("log", "now", "handlers"):
                assert actual[key] == expected[key], key
            assert expected["edges in place"] == 0
        return in_place

    def test_stop_from_a_carrier_callback_in_mid_chain(self):
        first, second, third = self.assert_same(stop_from_a_carrier_callback)
        # The first run ends at the stopper's start: the receivers after it
        # have not heard the frame yet.
        busy = [node for _, node, callback, _ in first["log"] if callback == "busy"]
        assert busy == [0, 1, 2, 3]
        assert second["handlers"] == third["handlers"] == 2 * Line.RECEIVERS + 2

    def test_a_horizon_at_each_start_and_end_time(self):
        """``run(until=t)`` at the time of each of the frame's edges, then on
        to the end: at the cut, the uncut run's log up to ``t`` and the clock
        on ``t``; at the end, its log, clock and handler count."""
        (whole,) = self.assert_same(uncut)
        times = sorted({time for time, *_ in whole["log"]})
        # The transmit call, every start, the sender's end, every end.
        assert len(times) == whole["handlers"] == 2 * Line.RECEIVERS + 2
        for horizon in times:
            cut, end = self.assert_same(cut_at(horizon))
            assert cut["log"] == [entry for entry in whole["log"] if entry[0] <= horizon]
            assert cut["now"] == horizon
            for key in ("log", "now", "handlers"):
                assert end[key] == whole[key], (horizon, key)

    def test_a_tombstone_inside_the_chains_span(self):
        (checkpoint,) = self.assert_same(tombstones_in_the_chains)
        # Queued: the transmit call, the transmission's two trips and one
        # more per chain past its tombstone; the other 13 of 18 handlers ran
        # in place.
        assert checkpoint["handlers"] == 2 * Line.RECEIVERS + 2
        assert checkpoint["edges in place"] == checkpoint["handlers"] - 5

    @pytest.mark.parametrize("callback", ["busy", "idle"], ids=["start", "end"])
    @pytest.mark.parametrize("rival, in_place", [
        (None, True),               # nothing else pending
        ("later time", True),
        ("same time, later sequence", True),
        ("same time, earlier sequence", False),
        ("earlier time", False),
        ("earlier time, cancelled", False),     # tombstones are run()'s to drop
    ])
    def test_an_edge_runs_in_place_only_before_the_queue_head(
            self, make_sim, callback, rival, in_place):
        """Receiver 3's signal start or end, right after receiver 2's in its
        chain, runs in place exactly when its key is before every queued
        key; otherwise it waits in the queue under its key.  Either way the
        handlers run in key order, as with one event per edge."""
        (checkpoint,) = self.assert_same(against_a_rival(callback, rival), make_sim)
        assert ran_in_place(checkpoint, 3, callback) is in_place
        keys = [entry[1:3] for entry in checkpoint["log"]]
        if rival is not None and not rival.endswith("cancelled"):
            before = keys.index((-1, "rival")) < keys.index((3, callback))
            assert before is not in_place
        else:
            assert (-1, "rival") not in keys

    @pytest.mark.parametrize("cut", ["until", "stop"])
    def test_an_edge_past_the_horizon_or_after_stop_waits_in_the_queue(
            self, make_sim, cut):
        """A run cut between receiver 2's and receiver 3's signal starts, by
        a horizon or by ``stop()`` from receiver 2's carrier-busy callback,
        leaves receiver 3's start queued under its key: the next call runs
        it as an event, and the chain goes on in place after it."""
        previous, edge = edge_times("busy")
        horizon = (previous + edge) / 2

        def play(channel_class, sim):
            line = Line(channel_class, sim, stopper=2 if cut == "stop" else None)
            sim.run(until=horizon if cut == "until" else None)
            checkpoints = [line.checkpoint()]
            sim.run()
            return checkpoints + [line.checkpoint()]

        at_cut, end = self.assert_same(play, make_sim)
        busy = [node for _, node, callback, _ in at_cut["log"] if callback == "busy"]
        assert busy == [0, 1, 2]
        assert at_cut["now"] == (horizon if cut == "until" else previous)
        assert not ran_in_place(end, 3, "busy")
        assert ran_in_place(end, 4, "busy")
        assert end["handlers"] == 2 * Line.RECEIVERS + 2
