"""Property tests: the grid spatial index must match brute-force O(N²) geometry.

The channel's correctness contract after the spatial-index change is exact
equivalence: for any placement, any ranges and any sequence of batch moves,
the grid-backed neighbour views and delivery lists must equal what the old
all-pairs scans computed — same members, same (registration) order.  These
tests pin that equivalence across random placements, including the lazy
generation-stamped invalidation: stale entries are only detected and rebuilt
on lookup, so every query after a batch move (or an impairment flip) must
still equal a freshly built channel's answer.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.engine import Simulator
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import Position, RangePropagationModel
from repro.phy.radio import Radio
from repro.phy.spatial import GridIndex

coordinate = st.floats(min_value=-2000.0, max_value=2000.0,
                       allow_nan=False, allow_infinity=False)
coordinates = st.tuples(coordinate, coordinate)
placements = st.lists(coordinates, min_size=2, max_size=25)


def build_channel(placement, tx_range, interference_factor):
    propagation = RangePropagationModel(
        transmission_range=tx_range,
        interference_range=tx_range * interference_factor,
    )
    sim = Simulator()
    channel = WirelessChannel(sim, propagation=propagation)
    for node_id, (x, y) in enumerate(placement):
        channel.register(Radio(sim, node_id, channel), Position(x, y))
    return channel


def brute_force_in_range(channel, node_id, radius):
    """All peers within ``radius`` of ``node_id``, in registration order."""
    origin = channel.position_of(node_id)
    return [other for other in channel.node_ids
            if other != node_id
            and origin.distance_to(channel.position_of(other)) <= radius]


def receivers_in_registration_order(deliveries):
    """Receiver ids of a delivery-cache payload, by their sequence offsets.

    The payload's columns list receivers in the order their signals start —
    by ``(delay, offset)`` — and number them (``offsets``) in registration
    order, the order the per-receiver sequence numbers are handed out in.
    """
    radios, delays, offsets = deliveries.radios, deliveries.delays, deliveries.offsets
    assert len(radios) == len(deliveries.receivable) == len(delays) \
        == len(deliveries.powers) == len(offsets)
    keys = list(zip(delays, offsets))
    assert keys == sorted(keys)
    assert deliveries.tie_gap == min((after[0] - before[0]
                                      for before, after in zip(keys, keys[1:])
                                      if before[1] > after[1]), default=float("inf")) > 0
    by_offset = sorted(range(len(offsets)), key=offsets.__getitem__)
    assert [offsets[k] for k in by_offset] == list(range(len(offsets)))
    return [radios[k].node_id for k in by_offset]


def assert_views_match_brute_force(channel):
    propagation = channel.propagation
    for node_id in channel.node_ids:
        assert channel.geometric_neighbors_of(node_id) == brute_force_in_range(
            channel, node_id, propagation.transmission_range)
        deliveries = channel._build_deliveries(node_id)
        assert receivers_in_registration_order(deliveries) == brute_force_in_range(
            channel, node_id, propagation.interference_range)


class TestGridIndexEquivalence:
    @given(placement=placements,
           cell_size=st.floats(min_value=50.0, max_value=900.0))
    @settings(max_examples=60, deadline=None)
    def test_neighborhood_contains_every_in_range_pair(self, placement, cell_size):
        grid = GridIndex(cell_size=cell_size)
        positions = {node_id: Position(x, y)
                     for node_id, (x, y) in enumerate(placement)}
        for node_id, position in positions.items():
            grid.insert(node_id, position)
        for a, position_a in positions.items():
            block = set(grid.neighborhood(a))
            for b, position_b in positions.items():
                if a != b and position_a.distance_to(position_b) <= cell_size:
                    assert b in block

    @given(placement=placements,
           tx_range=st.floats(min_value=50.0, max_value=600.0),
           interference_factor=st.floats(min_value=1.0, max_value=2.5))
    @settings(max_examples=60, deadline=None)
    def test_channel_views_equal_brute_force(self, placement, tx_range,
                                             interference_factor):
        channel = build_channel(placement, tx_range, interference_factor)
        assert_views_match_brute_force(channel)

    @given(placement=placements,
           tx_range=st.floats(min_value=50.0, max_value=600.0),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_views_stay_exact_across_batch_moves(self, placement, tx_range,
                                                 data):
        channel = build_channel(placement, tx_range, interference_factor=2.2)
        node_ids = channel.node_ids
        # Populate every cache first so the moves must actually invalidate.
        assert_views_match_brute_force(channel)
        for _ in range(3):
            batch = data.draw(st.dictionaries(
                st.sampled_from(node_ids), coordinates,
                min_size=1, max_size=len(node_ids)))
            channel.set_positions(
                {node_id: Position(x, y) for node_id, (x, y) in batch.items()})
            assert_views_match_brute_force(channel)

    @given(placement=placements,
           tx_range=st.floats(min_value=50.0, max_value=600.0),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_node_moves_use_incremental_invalidation(self, placement,
                                                            tx_range, data):
        # One mover per batch: only the entries whose 3×3 block the mover
        # touched may go stale; everything else must revalidate in place.
        channel = build_channel(placement, tx_range, interference_factor=1.5)
        node_ids = channel.node_ids
        assert_views_match_brute_force(channel)
        for _ in range(4):
            mover = data.draw(st.sampled_from(node_ids))
            x, y = data.draw(coordinates)
            channel.set_positions({mover: Position(x, y)})
            assert_views_match_brute_force(channel)


class TestLazyInvalidationEquivalence:
    """The lazy stamped caches vs a freshly built channel.

    ``assert_views_match_brute_force`` forces rebuilds (it calls
    ``_build_deliveries`` directly); these tests instead read through the
    cache-validation path after arbitrary event sequences, so a stale entry
    wrongly revalidated by its stamp would be caught.
    """

    @staticmethod
    def _warm_deliveries(channel, node_id):
        cached = channel._cached_payload(channel._delivery_cache, node_id)
        if cached is None:
            cached = channel._build_deliveries(node_id)
        return receivers_in_registration_order(cached)

    @given(placement=placements,
           tx_range=st.floats(min_value=50.0, max_value=600.0),
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_queries_match_fresh_channel_after_event_soup(self, placement,
                                                          tx_range, data):
        channel = build_channel(placement, tx_range, interference_factor=1.8)
        node_ids = channel.node_ids
        assert_views_match_brute_force(channel)   # populate every cache
        down = set()
        blocked = set()
        for _ in range(5):
            action = data.draw(st.sampled_from(["move", "node", "link"]))
            if action == "move":
                batch = data.draw(st.dictionaries(
                    st.sampled_from(node_ids), coordinates,
                    min_size=1, max_size=len(node_ids)))
                channel.set_positions({node_id: Position(x, y)
                                       for node_id, (x, y) in batch.items()})
            elif action == "node":
                node = data.draw(st.sampled_from(node_ids))
                if node in down:
                    down.discard(node)
                    channel.set_node_down(node, down=False)
                else:
                    down.add(node)
                    channel.set_node_down(node)
            else:
                a = data.draw(st.sampled_from(node_ids))
                b = data.draw(st.sampled_from(node_ids))
                if a == b:
                    continue
                key = (a, b) if a < b else (b, a)
                if key in blocked:
                    blocked.discard(key)
                    channel.set_link_blocked(a, b, blocked=False)
                else:
                    blocked.add(key)
                    channel.set_link_blocked(a, b)
            fresh = build_channel(
                [(channel.position_of(n).x, channel.position_of(n).y)
                 for n in node_ids],
                tx_range, interference_factor=1.8)
            for node in down:
                fresh.set_node_down(node)
            for a, b in blocked:
                fresh.set_link_blocked(a, b)
            for node_id in node_ids:
                assert channel.neighbors_of(node_id) == fresh.neighbors_of(node_id)
                assert (self._warm_deliveries(channel, node_id)
                        == self._warm_deliveries(fresh, node_id))
