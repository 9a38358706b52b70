"""Differential test: the channel's in-place signal edges vs one event each.

:class:`OracleChannel` delivers the way the channel did before transmissions
walked their own edges: every receiver gets an event for its signal start and
another for its signal end, the sender one for its own end of the frame, and
every receiver a packet copy of its own.  It exists only here.  A seeded
world — random or lattice geometry plus a hermit nobody can hear, reactive
listeners that transmit back, simultaneous senders, frames shorter than the
spread of propagation delays, nodes going down (senders in mid-frame among
them) and moving while frames are in the air, runs cut by ``until``,
``max_events`` and ``stop()`` — is played once on each channel (the oracle
always on a new simulator, the real channel on each kernel of
``tests.helpers.KERNELS``), and every listener callback ``(time, node,
callback, uid)``, every ``RadioStats`` field, the clock, the handler count
and the next free sequence number must agree.

A second differential holds the radio's carrier flag on the real channel
alone: listeners that switch ``Radio.notify_carrier`` off and on at random
against listeners that leave it on and ignore the callbacks themselves.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.engine import Simulator
from repro.net.interfaces import PhyListener
from repro.net.packet import Packet, reset_packet_ids
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import Position
from repro.phy.radio import Radio, RadioStats


class _SendersEndAlone:
    """What the oracle hands ``Radio.transmit`` to queue for the end of the
    frame, under the key drawn there: the sender's end and nothing behind it."""

    def __init__(self, sender):
        self.run_ends = sender._transmit_complete


class OracleChannel(WirelessChannel):
    """One event per edge, the sender's end included; one packet copy per
    receiver."""

    def broadcast(self, sender, packet, duration):
        self.stats.transmissions += 1
        self.stats.bytes_transmitted += packet.size
        deliveries = self._cached_payload(self._delivery_cache, sender.node_id)
        if deliveries is None:
            deliveries = self._build_deliveries(sender.node_id)
        in_registration_order = sorted(deliveries[0], key=lambda edge: edge[4])
        self.stats.deliveries_attempted += len(in_registration_order)
        for radio, delay, receivable, power, _ in in_registration_order:
            self.sim.schedule(delay, self._signal_start, radio, packet.copy(),
                              duration, receivable, power)
        return _SendersEndAlone(sender)

    def _signal_start(self, radio, packet, duration, receivable, power):
        signal = radio.signal_start(packet, duration, receivable, power)
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
            self.downed_on_air += 1
        elif rng.random() < 0.5:
            channel.set_node_down(node, down=not channel.is_node_down(node))
        else:
            old = channel.position_of(node)
            channel.set_positions({node: Position(old.x + rng.uniform(-300, 300),
                                                  old.y + rng.uniform(-300, 300))})

    def play(self):
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
                sim.run(max_events=rng.randrange(1, 30))
            else:
                sim.run(max_events=2000)
            checkpoints.append((len(self.log), sim.now,
                                sim.events_processed + sim.edges_in_place))
        return {
            "log": self.log,
            "checkpoints": checkpoints,
            "radio stats": [{field: getattr(radio.stats, field)
                             for field in RadioStats._COUNTERS + RadioStats._GAUGES}
                            for radio in self.radios],
            "channel stats": vars(self.channel.stats),
            "next sequence": sim.reserve_sequences(),
        }


def assert_same_as_oracle(make_sim, seed, positions):
    expected = World(OracleChannel, Simulator(), seed, positions).play()
    world = World(WirelessChannel, make_sim(), seed, positions)
    actual = world.play()
    for key in expected:
        assert actual[key] == expected[key], key
    return world


def assert_carrier_flag_only_silences(make_sim, seed, positions):
    expected = World(WirelessChannel, make_sim(), seed, positions, DeafenedTalker).play()
    world = World(WirelessChannel, make_sim(), seed, positions, FlagTalker)
    actual = world.play()
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
            world = assert_same_as_oracle(
                make_sim, seed, [(150.0 * (seed % 4 + i), 90.0 * i) for i in range(8)])
            frames += sum(1 for entry in world.log if entry[2] == "frame")
            in_place += world.sim.edges_in_place
            handlers += world.sim.events_processed + world.sim.edges_in_place
            hermit_frames += world.radios[-1].stats.frames_sent
            downed_on_air += world.downed_on_air
        assert frames > 100
        assert in_place > handlers // 4
        assert hermit_frames > 10 and downed_on_air > 10


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
        (near, far), tie_gap = channel._build_deliveries(0)
        assert (near[0].node_id, far[0].node_id) == (2, 1) and 0 < tie_gap < 1e-13
        assert 4096.0 + near[1] == 4096.0 + far[1]
        for at in (1.0, 4096.0):
            sim.schedule_at(at, world.radios[0].transmit, Packet(), 1e-3)
        sim.run()
        logs.append(world.log)
    assert logs[0] == logs[1]
    busy = [(time, node) for time, node, callback, _ in logs[1]
            if callback == "busy" and node != 0]
    assert [node for _, node in busy] == [2, 1, 1, 2]
    assert busy[0][0] < busy[1][0] and busy[2][0] == busy[3][0]
