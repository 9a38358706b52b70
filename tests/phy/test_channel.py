"""Tests for the shared wireless channel."""

from __future__ import annotations

import tracemalloc
from array import array

import pytest

from repro.core.errors import ConfigurationError, SchedulingError
from repro.experiments.scenarios import build_named_scenario
from repro.net.headers import IpHeader, IpProtocol
from repro.net.interfaces import PhyListener
from repro.net.packet import Packet
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import SPEED_OF_LIGHT, Position
from repro.phy.radio import Radio


class CountingListener(PhyListener):
    def __init__(self):
        self.received = []

    def on_frame_received(self, packet):
        self.received.append(packet)

    def on_carrier_busy(self):
        pass

    def on_carrier_idle(self):
        pass


def add_node(sim, channel, node_id, x, y):
    radio = Radio(sim, node_id, channel)
    channel.register(radio, Position(x, y))
    radio.listener = CountingListener()
    return radio


class TestRegistration:
    def test_duplicate_registration_rejected(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        with pytest.raises(ConfigurationError):
            add_node(sim, channel, 0, 100, 0)

    def test_positions_and_distance(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 200, 0)
        assert channel.distance(0, 1) == pytest.approx(200.0)
        assert channel.position_of(1).x == 200.0

    def test_set_position_unknown_node(self, sim, channel):
        with pytest.raises(ConfigurationError):
            channel.set_positions({9: Position(0, 0)})

    def test_neighbors_within_transmission_range(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 200, 0)   # in range
        add_node(sim, channel, 2, 400, 0)   # out of tx range
        assert channel.neighbors_of(0) == [1]

    def test_node_ids(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 3, 100, 0)
        assert sorted(channel.node_ids) == [0, 3]


class TestBroadcastDelivery:
    def test_frame_reaches_only_nodes_in_tx_range(self, sim, channel):
        sender = add_node(sim, channel, 0, 0, 0)
        near = add_node(sim, channel, 1, 200, 0)
        far = add_node(sim, channel, 2, 400, 0)      # interference-only
        hidden = add_node(sim, channel, 3, 600, 0)   # completely out of range
        sender.transmit(Packet(payload_size=10), duration=0.001)
        sim.run()
        assert len(near.listener.received) == 1
        assert far.listener.received == []
        assert hidden.listener.received == []
        # The interference-range node still sensed energy.
        assert far.stats.frames_below_threshold == 1

    def test_sender_does_not_receive_own_frame(self, sim, channel):
        sender = add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 100, 0)
        sender.transmit(Packet(), duration=0.001)
        sim.run()
        assert sender.listener.received == []

    def test_receivers_share_the_frame_as_sent(self, sim, channel):
        """The channel copies nothing: every receiver gets the object the
        sender transmitted.  A sender that goes on changing its packet sends a
        copy (the MAC's DATA and broadcast frames: tests/mac)."""
        sender = add_node(sim, channel, 0, 0, 0)
        a = add_node(sim, channel, 1, 200, 0)
        b = add_node(sim, channel, 2, -200, 0)
        frame = Packet(payload_size=10, ip=IpHeader(src=0, dst=1, protocol=IpProtocol.UDP, ttl=9))
        sender.transmit(frame, duration=0.001)
        sim.run()
        (received_a,), (received_b,) = a.listener.received, b.listener.received
        assert received_a is frame and received_b is frame

    def test_channel_stats_counted(self, sim, channel):
        sender = add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 200, 0)
        sender.transmit(Packet(payload_size=10), duration=0.001)
        sim.run()
        assert channel.stats.transmissions == 1
        assert channel.stats.deliveries_attempted == 1


class TestTwoQueueTripsPerFrame:
    """One event starts the signals, one — the sender's own end of the frame —
    ends them; every other edge runs in place."""

    @pytest.mark.parametrize("receivers", [1, 2, 7])
    def test_one_sender_n_receivers(self, sim, channel, receivers):
        sender = add_node(sim, channel, 0, 0, 0)
        for index in range(receivers):
            add_node(sim, channel, index + 1, 60.0 * (index + 1), 0)    # up to 420 m
        sender.transmit(Packet(payload_size=10), duration=0.001)
        sim.run()
        assert sim.events_processed == 2
        assert sim.edges_in_place == 2 * receivers - 1
        assert sim.now == pytest.approx(0.001 + 60.0 * receivers / SPEED_OF_LIGHT, rel=1e-12)

    def test_a_sender_alone_still_ends_its_frame(self, sim, channel):
        sender = add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 900, 0)
        busy_idle = []
        sender.listener.on_carrier_busy = lambda: busy_idle.append(("busy", sim.now))
        sender.listener.on_carrier_idle = lambda: busy_idle.append(("idle", sim.now))
        sender.transmit(Packet(), duration=0.001)
        assert sender.carrier_busy
        sim.run()
        assert (sim.events_processed, sim.edges_in_place) == (1, 0)
        assert busy_idle == [("busy", 0.0), ("idle", 0.001)] and not sender.carrier_busy

    def test_a_frame_over_before_it_arrives_ends_at_each_receiver_all_the_same(
            self, sim, channel):
        # 1e-7 s on the air, 5e-7 s and 1.5e-6 s away: the sender is done
        # before any signal has started and the end chain runs dry twice.
        sender = add_node(sim, channel, 0, 0, 0)
        near = add_node(sim, channel, 1, 150, 0)
        far = add_node(sim, channel, 2, 450, 0)
        sender.transmit(Packet(), duration=1e-7)
        sim.run()
        assert near.stats.frames_received == 1 and far.stats.frames_below_threshold == 1
        assert not near.carrier_busy and not far.carrier_busy
        assert sim.events_processed + sim.edges_in_place == 5

    @pytest.mark.parametrize("duration", [-1e-3, float("inf"), float("nan")])
    def test_a_frame_needs_a_duration(self, sim, channel, duration):
        sender = add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 200, 0)
        with pytest.raises(SchedulingError):
            sender.transmit(Packet(), duration=duration)


class TestUnknownNodeErrors:
    def test_position_of_unknown_node(self, sim, channel):
        with pytest.raises(ConfigurationError):
            channel.position_of(42)

    def test_distance_unknown_node(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        with pytest.raises(ConfigurationError):
            channel.distance(0, 42)
        with pytest.raises(ConfigurationError):
            channel.distance(42, 0)
        with pytest.raises(ConfigurationError):
            channel.distance(41, 42)

    def test_neighbors_of_unknown_node(self, sim, channel):
        with pytest.raises(ConfigurationError):
            channel.neighbors_of(42)
        with pytest.raises(ConfigurationError):
            channel.geometric_neighbors_of(42)


class TestImpairmentAwareNeighbors:
    """neighbors_of must agree with what broadcast actually delivers."""

    def test_downed_node_has_no_neighbors(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 200, 0)
        channel.set_node_down(1)
        assert channel.neighbors_of(1) == []
        assert channel.neighbors_of(0) == []

    def test_downed_unknown_node_still_rejected(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        channel.set_node_down(0)
        with pytest.raises(ConfigurationError):
            channel.neighbors_of(42)

    def test_geometric_view_ignores_impairments(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 200, 0)
        channel.set_node_down(1)
        channel.set_link_blocked(0, 1)
        assert channel.geometric_neighbors_of(0) == [1]
        assert channel.geometric_neighbors_of(1) == [0]

    def test_blocked_link_hidden_from_both_sides(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 200, 0)
        add_node(sim, channel, 2, -200, 0)
        channel.set_link_blocked(0, 1)
        assert channel.neighbors_of(0) == [2]
        assert channel.neighbors_of(1) == []
        channel.set_link_blocked(0, 1, blocked=False)
        assert channel.neighbors_of(0) == [1, 2]

    def test_node_recovery_restores_neighbors(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 200, 0)
        channel.set_node_down(1)
        channel.set_node_down(1, down=False)
        assert channel.neighbors_of(0) == [1]
        assert channel.neighbors_of(1) == [0]

    def test_impairment_generation_counts_changes_only(self, sim, channel):
        add_node(sim, channel, 0, 0, 0)
        add_node(sim, channel, 1, 200, 0)
        before = channel.impairment_generation
        channel.set_node_down(0)
        channel.set_node_down(0)          # no-op: already down
        assert channel.impairment_generation == before + 1
        channel.set_link_blocked(0, 1)
        channel.set_link_blocked(0, 1)    # no-op: already blocked
        assert channel.impairment_generation == before + 2
        channel.set_node_down(0, down=False)
        channel.set_link_blocked(0, 1, blocked=False)
        assert channel.impairment_generation == before + 4


class TestSpatialIndexIntegration:
    def test_neighbors_in_registration_order(self, sim, channel):
        # Register out of id order: the neighbour view follows registration
        # order (the pre-index dict iteration order), not sorted ids.
        add_node(sim, channel, 5, 0, 0)
        add_node(sim, channel, 2, 100, 0)
        add_node(sim, channel, 9, 200, 0)
        assert channel.neighbors_of(5) == [2, 9]
        assert channel.geometric_neighbors_of(2) == [5, 9]

    def test_incremental_move_keeps_unrelated_cache(self, sim, channel):
        # Nodes 0-5 clustered at the origin; node 6 kilometres away.  Moving
        # node 6 within its own far-away cell must leave the cluster's cached
        # delivery lists valid (stamp revalidation, zero rebuilds) while the
        # mover's own entry goes stale.
        for node_id in range(6):
            add_node(sim, channel, node_id, 30.0 * node_id, 0)
        far = add_node(sim, channel, 6, 10_000, 0)
        for node_id in range(7):
            channel._build_deliveries(node_id)
        rebuilds = channel.stats.delivery_rebuilds
        channel.set_positions({6: Position(10_100.0, 0.0)})
        for node_id in range(6):
            assert channel._cached_payload(
                channel._delivery_cache, node_id) is not None
        assert channel._cached_payload(channel._delivery_cache, 6) is None
        assert channel.stats.delivery_rebuilds == rebuilds
        # And the moved node's view is correct after the move.
        assert channel.neighbors_of(6) == []
        far.transmit(Packet(payload_size=10), duration=0.001)
        sim.run()
        assert all(channel._radios[n].listener.received == []
                   for n in range(6))

    def test_mass_move_keeps_entries_and_rebuilds_lazily(self, sim, channel):
        # Moving 100% of the population used to wipe both caches outright.
        # Now it only bumps generation counters: every entry survives (stale),
        # no rebuild happens up front, and queries still answer correctly.
        for node_id in range(6):
            add_node(sim, channel, node_id, 30.0 * node_id, 0)
        for node_id in range(6):
            channel._build_deliveries(node_id)
        rebuilds = channel.stats.delivery_rebuilds
        channel.set_positions({node_id: Position(1000.0 + 30.0 * node_id, 0.0)
                               for node_id in range(6)})
        assert set(channel._delivery_cache) == set(range(6))
        assert channel.stats.delivery_rebuilds == rebuilds
        for node_id in range(6):
            assert channel._cached_payload(
                channel._delivery_cache, node_id) is None
        assert channel.neighbors_of(0) == [1, 2, 3, 4, 5]

    def test_steady_state_update_rebuilds_only_queried_senders(self, sim, channel):
        # Two clusters 10 km apart, every node moving each interval — the
        # mobile steady state that used to hit the O(N) full-wipe fallback.
        # Lazy stamps must defer all rebuild work to actual queries, and an
        # interval that leaves a neighbourhood untouched must revalidate its
        # entries without rebuilding them.
        for node_id in range(4):
            add_node(sim, channel, node_id, 40.0 * node_id, 0.0)
        for node_id in range(4, 8):
            add_node(sim, channel, node_id, 10_000.0 + 40.0 * (node_id - 4), 0.0)
        for node_id in range(8):
            channel._build_deliveries(node_id)
        rebuilds = channel.stats.delivery_rebuilds
        # Interval 1: 100% of nodes jitter within their cells.
        channel.set_positions({
            node_id: Position(channel.position_of(node_id).x + 1.0, 2.0)
            for node_id in range(8)})
        assert channel.stats.delivery_rebuilds == rebuilds   # nothing up front
        assert set(channel._delivery_cache) == set(range(8))  # no wipe
        # One broadcast rebuilds exactly the transmitting sender's list.
        channel._radios[0].transmit(Packet(payload_size=10), duration=0.001)
        assert channel.stats.delivery_rebuilds == rebuilds + 1
        # Interval 2: only the far cluster moves.  Node 0's list — rebuilt
        # after interval 1, neighbourhood untouched since — revalidates by
        # stamp without a rebuild.  (Nodes 1-3 stay stale from interval 1:
        # they were never re-queried, which is exactly the laziness.)
        channel.set_positions({
            node_id: Position(channel.position_of(node_id).x + 1.0, 4.0)
            for node_id in range(4, 8)})
        assert channel._cached_payload(channel._delivery_cache, 0) is not None
        assert channel.stats.delivery_rebuilds == rebuilds + 1


# Node ids start at 1000 so that no counter, offset or stamp in the channel's
# state can be mistaken for one.
FIELD = {1000 + index: Position(x, y) for index, (x, y) in enumerate([
    (0, 0), (200, 0), (400, 30), (600, 0), (820, 10), (1100, 0), (1240, 300),
    (1400, 0), (300, 400), (310, 560), (900, 700), (1650, 20)])}


def populate(sim, channel):
    for node_id, position in FIELD.items():
        add_node(sim, channel, node_id, position.x, position.y)
    return channel


def delivery_lists(channel):
    """Every sender's delivery list as broadcast would read it, radios by id."""
    lists = {}
    for node_id in channel.node_ids:
        cached = channel._cached_payload(channel._delivery_cache, node_id)
        deliveries = cached if cached is not None else channel._build_deliveries(node_id)
        columns = (deliveries.radios, deliveries.delays, deliveries.receivable,
                   deliveries.powers, deliveries.offsets)
        assert len(set(map(len, columns))) == 1
        lists[node_id] = ([(radio.node_id, delay, receivable, power, offset)
                           for radio, delay, receivable, power, offset in zip(*columns)],
                          deliveries.tie_gap)
    return lists


class TestDeliveryListIsTheLinkStructure:
    """No per-pair cache sits behind the delivery lists: an impairment change
    drops them and each is classified afresh from positions on its next use."""

    def test_impairment_round_trips_rebuild_the_never_impaired_lists(self, sim, channel):
        populate(sim, channel)
        pristine = delivery_lists(populate(sim, WirelessChannel(sim)))
        senders = len(FIELD)
        assert delivery_lists(channel) == pristine
        assert channel.stats.delivery_rebuilds == senders

        channel.set_link_blocked(1000, 1001)
        blocked = delivery_lists(channel)
        assert 1001 not in [edge[0] for edge in blocked[1000][0]]
        assert 1000 not in [edge[0] for edge in blocked[1001][0]]
        assert {n: blocked[n] for n in blocked if n not in (1000, 1001)} == \
            {n: pristine[n] for n in pristine if n not in (1000, 1001)}
        channel.set_link_blocked(1000, 1001, blocked=False)
        assert delivery_lists(channel) == pristine
        assert channel.stats.delivery_rebuilds == 3 * senders

        channel.set_node_down(1002)
        down = delivery_lists(channel)
        assert down[1002] == ([], float("inf"))
        assert all(1002 not in [edge[0] for edge in edges] for edges, _ in down.values())
        channel.set_node_down(1002, down=False)
        assert delivery_lists(channel) == pristine
        assert channel.stats.delivery_rebuilds == 5 * senders
        # Reading again rebuilds nothing.
        assert delivery_lists(channel) == pristine
        assert channel.stats.delivery_rebuilds == 5 * senders

    def test_columns_are_the_propagation_models_answers(self, sim, channel):
        """The channel does the model's arithmetic in place; every column
        entry and neighbour list equals what the model's methods answer."""
        populate(sim, channel)
        model = channel.propagation
        for sender, (edges, _) in delivery_lists(channel).items():
            others = [node for node in FIELD if node != sender]
            assert sorted(node for node, *_ in edges) == sorted(
                node for node in others if model.can_interfere(channel.distance(sender, node)))
            for node, delay, receivable, power, _ in edges:
                distance = FIELD[sender].distance_to(FIELD[node])
                assert (receivable, True) == model.classify(distance)
                assert delay == model.propagation_delay(distance)
                assert power == model.relative_power(distance)
            assert channel.geometric_neighbors_of(sender) == [
                node for node in others if model.can_receive(channel.distance(sender, node))]

    def test_only_interfering_pairs_are_remembered(self, sim, channel):
        populate(sim, channel)
        interference_range = channel.propagation.interference_range
        for radio in list(channel._radios.values()):
            radio.transmit(Packet(payload_size=10), duration=0.0001)
            sim.run()
            channel.neighbors_of(radio.node_id)
        # The field has pairs that share a 3×3 block and do not interfere:
        # candidates a list is built from, and nothing to keep afterwards.
        assert any(channel.distance(node_id, other) > interference_range
                   for node_id in FIELD for other in channel._grid.neighborhood(node_id))

        def peers(value):
            """Node ids mentioned anywhere inside a per-sender value."""
            if isinstance(value, Radio):
                return {value.node_id}
            if isinstance(value, int):
                return {value} & set(FIELD)
            if isinstance(value, dict):
                return peers(list(value)) | peers(list(value.values()))
            if isinstance(value, (list, tuple, set, frozenset, array)):
                return set().union(*map(peers, value))
            slots = getattr(type(value), "__slots__", ())
            return set().union(*(peers(getattr(value, name)) for name in slots))

        per_sender = {name: value for name, value in vars(channel).items()
                      if isinstance(value, dict) and value and set(value) <= set(FIELD)}
        assert {"_delivery_cache", "_neighbor_cache"} <= set(per_sender)
        for name, table in per_sender.items():
            for node_id, value in table.items():
                for other in peers(value) - {node_id}:
                    assert channel.distance(node_id, other) <= interference_range, \
                        f"{name}[{node_id}] holds non-interfering peer {other}"


class TestDeliveryListFootprint:
    """Delivery lists are columns: a cached receiver costs its share of two
    lists and three arrays, not a tuple with two boxed floats (≈141 bytes)."""

    def test_every_senders_list_costs_at_most_80_bytes_per_edge(self):
        channel = build_named_scenario("random-rwalk-vegas-2mbps", seed=3).channel
        channel._delivery_cache.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for node_id in channel.node_ids:
                channel._build_deliveries(node_id)
            cost = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        node_ids = channel.node_ids
        reach = channel.propagation.interference_range
        edges = sum(channel.distance(a, b) <= reach
                    for a in node_ids for b in node_ids if a != b)
        assert (len(channel._delivery_cache), edges) == (120, 3652)
        assert cost / edges <= 80
