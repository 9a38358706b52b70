"""Shared wireless channel.

The channel knows every radio's position and, when a radio transmits, delivers
the signal to every other radio within interference range.  Radios within the
(smaller) transmission range may decode the frame; radios between transmission
and interference range only sense energy — these are the nodes whose concurrent
transmissions create hidden-terminal collisions.

In-range queries are answered from a :class:`~repro.phy.spatial.GridIndex`
with a cell side of one interference range: a sender's potential receivers all
live in the 3×3 cell block around it, so building a delivery list costs O(k)
in the local node count instead of O(N) over the whole population.  Delivery
lists are still emitted in *registration order* — the grid only narrows the
candidate set, it never reorders scheduled deliveries — which keeps golden
traces bit-identical to the pre-index channel.

A transmission makes two trips through the event queue, not one per receiver:
one for its signal starts, one for the sender's end of the frame and the
signal ends behind it: see :class:`_Transmission`.  The ends of quiet signals
(undecodable, at a radio whose listener is not watching the carrier) are not
in that chain at all: the radio keeps them in key order as they arrive and
settles them itself (:mod:`repro.phy.radio`).  A frame on the air is the
packet its sender passed, shared by every receiver; the channel copies
nothing.

Positions may change mid-run: a :class:`~repro.mobility.base.MobilityManager`
pushes updated positions through :meth:`WirelessChannel.set_positions`.
Invalidation is *lazy* and generation-stamped: moving a node only bumps a
per-cell generation counter on the cells it touched — O(movers) regardless of
population size — and every cached delivery/neighbour entry carries the
cell and 3×3 block stamp it was built under.  A lookup first compares a single
global move-generation integer (the static fast path), then revalidates the
stamp (nine dict reads) and rebuilds only if the entry's neighbourhood really
changed.  An interval where 100% of nodes move therefore costs O(movers) up
front instead of the old O(N·k) full wipe-and-rebuild, and entries far from
every mover survive untouched.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.engine import Simulator
from repro.core.errors import ConfigurationError
from repro.core.tracing import NULL_TRACER, Tracer
from repro.net.packet import Packet
from repro.phy.propagation import SPEED_OF_LIGHT, Position, RangePropagationModel
from repro.phy.radio import Radio, _Signal
from repro.phy.spatial import BLOCK_OFFSETS, CellKey, GridIndex

#: A stamped cache entry: ``[validated_move_generation, cell_key, block_stamp,
#: payload]``.  Mutable on purpose — successful revalidation refreshes the
#: generation in place so the next lookup takes the single-compare fast path.
_StampedEntry = list


class _Deliveries:
    """One sender's receivers as parallel columns, in the order their signals
    start: by delay, then by offset.

    Entry ``k`` of the columns is one receiver: its radio, whether it can
    decode the sender's frames, its propagation delay and relative power, and
    its offset — its place among the receivers in registration order, hence
    its signal start's place in the block of sequences a transmission
    reserves.  Delays, powers and offsets are unboxed ``array`` columns.
    ``tie_gap`` is the smallest delay difference between neighbours that are
    out of registration order: should ``now + delay`` round that away, the two
    start in the same instant and the order by delay has them the wrong way
    round (:meth:`WirelessChannel.broadcast` checks).

    Args:
        radios, receivable, delays, powers, offsets: The columns in any order.
        order: The positions in them of the receivers, in start order.
    """

    __slots__ = ("radios", "receivable", "delays", "powers", "offsets", "tie_gap")

    def __init__(self, radios: Sequence[Radio], receivable: Sequence[bool],
                 delays: Sequence[float], powers: Sequence[float],
                 offsets: Sequence[int], order: Sequence[int]) -> None:
        self.radios = [radios[k] for k in order]
        self.receivable = [receivable[k] for k in order]
        self.delays = delays = array("d", [delays[k] for k in order])
        self.powers = array("d", [powers[k] for k in order])
        self.offsets = offsets = array("i", [offsets[k] for k in order])
        self.tie_gap = min((delays[k] - delays[k - 1] for k in range(1, len(order))
                            if offsets[k - 1] > offsets[k]), default=math.inf)

    def reordered(self, order: Sequence[int]) -> "_Deliveries":
        """The same receivers, entry ``order[k]`` of these columns at ``k``."""
        return _Deliveries(self.radios, self.receivable, self.delays,
                           self.powers, self.offsets, order)


class _Transmission:
    """One frame on the air: every receiver's signal start, the sender's own
    end of the frame, and the signal ends its receivers are owed.

    Each edge has the ``(time, sequence)`` key an event of its own would have:
    the starts' sequences are reserved as one block when the frame is sent
    (numbered in registration order, whatever order the signals arrive in),
    the sender's end takes the next one the sending radio draws, each
    receiver's end is given its own by the radio at the end of its
    ``signal_start``.  The starts' keys rise along ``deliveries``; so do the ends',
    after the sender's, which is older than and never later than any of them.
    So each series is a chain with only its head in the event queue — two
    queue trips per transmission: after an edge has run, the next one runs in
    place if nothing queued comes before it and is queued under its reserved
    key otherwise.  Handler order is that of one event per edge.  The loops
    apply the engine's one rule (:mod:`repro.core.engine`, *Edge keys*): an
    edge runs in place when its key is within the run's horizon and before
    the queue head's, tombstones included.

    The end chain holds only the ends a radio hands back from
    ``signal_start``: a quiet signal's end stays with its radio, which
    settles it.  ``on_sent``, the sender's completion of this frame, runs
    right after the sender's end; it belongs to the frame, not the radio,
    which may start another frame while this one is on the air.
    """

    __slots__ = ("sim", "sender", "deliveries", "packet", "duration", "sent_at",
                 "on_sent", "first_sequence", "started", "receivers", "signals",
                 "ended")

    def __init__(self, sim: Simulator, sender: Radio, deliveries: _Deliveries,
                 packet: Packet, duration: float,
                 on_sent: Optional[Callable[[], None]] = None) -> None:
        self.sim = sim
        self.sender = sender
        self.deliveries = deliveries
        self.packet = packet
        self.duration = duration
        self.sent_at = sim.now
        self.on_sent = on_sent
        self.first_sequence = sim.reserve_sequences(len(deliveries.radios))
        #: Signal starts run so far, in ``deliveries`` order.
        self.started = 0
        #: The end chain: radios owed an end, and their signals, in key order;
        #: ``ended`` of them have ended, -1 while the sender's end (queued by
        #: the sender) is to come.
        self.receivers: List[Radio] = []
        self.signals: List[_Signal] = []
        self.ended = -1
        if deliveries.radios:
            sim.schedule_reserved(self.sent_at + deliveries.delays[0],
                                  self.first_sequence + deliveries.offsets[0],
                                  self._run_starts)

    def _run_starts(self) -> None:
        sim = self.sim
        queue = sim._queue
        deliveries = self.deliveries
        radios = deliveries.radios
        receivable = deliveries.receivable
        delays = deliveries.delays
        powers = deliveries.powers
        offsets = deliveries.offsets
        receivers = self.receivers
        signals = self.signals
        packet = self.packet
        duration = self.duration
        sent_at = self.sent_at
        first_sequence = self.first_sequence
        count = len(radios)
        index = self.started
        while True:
            radio = radios[index]
            signal = radio.signal_start(packet, duration, receivable[index],
                                        powers[index])
            if signal is not None:
                if self.ended == len(signals):
                    # Every edge of the end chain so far has run, so it has
                    # no head in the queue: the frame is shorter than the
                    # spread of delays and the chain ran dry.
                    sim.schedule_reserved(signal.end_time, signal.end_sequence,
                                          self.run_ends)
                receivers.append(radio)
                signals.append(signal)
            index += 1
            if index == count:
                self.started = index
                return
            time = sent_at + delays[index]
            sequence = first_sequence + offsets[index]
            if time <= sim._in_place_until and (
                    not queue or time < (head := queue[0])[0]
                    or (time == head[0] and sequence < head[1])):
                sim.now = time
                sim.now_sequence = sequence
                sim.edges_in_place += 1
            else:
                self.started = index
                sim.schedule_reserved(time, sequence, self._run_starts)
                return

    def run_ends(self) -> None:
        """Run the end chain from its head for as long as the kernel allows."""
        sim = self.sim
        queue = sim._queue
        receivers = self.receivers
        signals = self.signals
        index = self.ended
        if index < 0:
            self.sender._transmit_complete()
            if self.on_sent is not None:
                self.on_sent()
        else:
            receivers[index]._signal_end(signals[index])
        while True:
            index += 1
            if index == len(signals):
                break
            signal = signals[index]
            time = signal.end_time
            sequence = signal.end_sequence
            if time <= sim._in_place_until and (
                    not queue or time < (head := queue[0])[0]
                    or (time == head[0] and sequence < head[1])):
                sim.now = time
                sim.now_sequence = sequence
                sim.edges_in_place += 1
            else:
                sim.schedule_reserved(time, sequence, self.run_ends)
                break
            receivers[index]._signal_end(signal)
        self.ended = index


@dataclass
class ChannelStats:
    """Aggregate counters over all transmissions on the channel."""

    transmissions: int = 0
    bytes_transmitted: int = 0
    deliveries_attempted: int = 0
    #: Delivery lists computed from scratch (cache miss or stale stamp).
    #: Mobile steady state should grow this with queried senders, not with
    #: population — the old full-wipe path forced a rebuild per sender per
    #: interval; the lazy stamps rebuild only what a mover actually touched.
    delivery_rebuilds: int = 0
    #: Geometric neighbour lists computed from scratch.
    neighbor_rebuilds: int = 0


class WirelessChannel:
    """The single shared wireless medium.

    Args:
        sim: The simulation engine.
        propagation: Range/propagation model; defaults to the paper's
            250 m / 550 m configuration.
        tracer: Optional tracer.
    """

    def __init__(
        self,
        sim: Simulator,
        propagation: Optional[RangePropagationModel] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.propagation = propagation or RangePropagationModel()
        self.tracer = tracer
        self.stats = ChannelStats()
        self._radios: Dict[int, Radio] = {}
        self._positions: Dict[int, Position] = {}
        # Spatial index over positions; one interference range per cell, so
        # every in-range query is a 3×3 neighbourhood walk.
        self._grid = GridIndex(cell_size=self.propagation.max_range)
        # Registration order per node: the grid returns candidates in set
        # order, delivery lists and neighbour views sort back into the order
        # radios registered (the pre-index iteration order golden traces pin).
        self._registration_index: Dict[int, int] = {}
        # Lazy generation-stamped caches.  Every entry is a _StampedEntry
        # ``[move_generation, cell_key, block_stamp, payload]`` validated on
        # lookup by _cached_payload(); set_positions never walks them.
        #
        # _delivery_cache payload: a _Deliveries — every radio inside
        # interference range as columns in (delay, registration) order, i.e.
        # the order their signals start in.  This is the only per-pair state
        # the channel holds: a pair out of interference range is classified
        # when a list is built and then forgotten.
        self._delivery_cache: Dict[int, _StampedEntry] = {}
        # _neighbor_cache payload: in-transmission-range node ids, in
        # registration order (the geometric_neighbors_of answer).
        self._neighbor_cache: Dict[int, _StampedEntry] = {}
        # Bumped once per set_positions batch (and per registration); an entry
        # validated at the current generation is trusted with one int compare.
        self._move_generation = 0
        # Per-cell move counters: a mover bumps its old cell (distances inside
        # changed even without a cell crossing) and, when it crossed, its new
        # cell.  An entry is stale iff its node changed cell or the generation
        # sum over its 3×3 block moved — both monotone, so a matching
        # (cell_key, block_stamp) pair proves the neighbourhood is untouched.
        self._cell_generation: Dict[CellKey, int] = {}
        # Scripted impairments (scenario-timeline events): downed nodes emit
        # and receive nothing; blocked (unordered) node pairs exchange nothing.
        self._down_nodes: Set[int] = set()
        self._blocked_links: Set[Tuple[int, int]] = set()
        self._impairment_generation = 0

    # ------------------------------------------------------------------
    # Registration / topology
    # ------------------------------------------------------------------
    def register(self, radio: Radio, position: Position) -> None:
        """Attach a radio to the channel at the given position."""
        if radio.node_id in self._radios:
            raise ConfigurationError(f"node {radio.node_id} already registered on channel")
        self._radios[radio.node_id] = radio
        self._positions[radio.node_id] = position
        self._registration_index[radio.node_id] = len(self._registration_index)
        self._grid.insert(radio.node_id, position)
        # A new node changes the geometry of every neighbourhood overlapping
        # its cell; bumping the cell (and the global generation, so validated
        # entries re-check their stamp) is O(1) instead of a cache wipe.
        self._move_generation += 1
        cell = self._grid.cell_key(position)
        self._cell_generation[cell] = self._cell_generation.get(cell, 0) + 1

    def set_positions(self, positions: Mapping[int, Position]) -> None:
        """Move several nodes in one batch.

        This is the mobility hot path: a
        :class:`~repro.mobility.base.MobilityManager` moves most of the
        population every update interval.  The cost here is O(movers) no
        matter how large the population or the batch: each mover re-buckets
        in the grid and bumps the generation counter of the cell(s) it
        touched.  No cache is walked or wiped — stale entries are detected
        (by their stamp) and rebuilt lazily on their next lookup, so a node
        far from every mover keeps its cached delivery list and even a
        100%-movers interval does no up-front rebuild work.
        Unknown node ids are rejected before any position changes.

        Raises:
            ConfigurationError: If any node id is not registered.
        """
        if not positions:
            return
        unknown = [node_id for node_id in positions if node_id not in self._radios]
        if unknown:
            raise ConfigurationError(f"unknown nodes {sorted(unknown)}")
        grid = self._grid
        own_positions = self._positions
        cell_generation = self._cell_generation
        self._move_generation += 1
        for node_id, position in positions.items():
            own_positions[node_id] = position
            # The old cell's geometry changed even if the node stayed inside
            # it — in-cell motion still changes every distance to the node.
            old_cell = grid.cell_of(node_id)
            cell_generation[old_cell] = cell_generation.get(old_cell, 0) + 1
            if grid.move(node_id, position):
                new_cell = grid.cell_of(node_id)
                cell_generation[new_cell] = cell_generation.get(new_cell, 0) + 1

    def _block_stamp(self, cell: CellKey) -> int:
        """Sum of the per-cell generations over ``cell``'s 3×3 block.

        Monotone in every summand, so a cached (cell_key, block_stamp) pair
        matching the current values proves no move touched the block since
        the entry was built — a changed summand can never be cancelled out.
        """
        generations = self._cell_generation.get
        cx, cy = cell
        stamp = 0
        for dx, dy in BLOCK_OFFSETS:
            stamp += generations((cx + dx, cy + dy), 0)
        return stamp

    def _cached_payload(self, cache: Dict[int, _StampedEntry], node_id: int):
        """Return the still-valid cached payload for ``node_id``, else None.

        Fast path: one int compare against the global move generation (no
        motion since the entry was last validated).  Slow path: the node is
        still in the cell the entry was built for and the block stamp is
        unchanged — then the entry is refreshed in place so the next lookup
        takes the fast path again.
        """
        entry = cache.get(node_id)
        if entry is None:
            return None
        if entry[0] == self._move_generation:
            return entry[3]
        cell = self._grid.cell_of(node_id)
        if entry[1] == cell and entry[2] == self._block_stamp(cell):
            entry[0] = self._move_generation
            return entry[3]
        return None

    def position_of(self, node_id: int) -> Position:
        """Return the position of ``node_id``.

        Raises:
            ConfigurationError: If the node is not registered.
        """
        position = self._positions.get(node_id)
        if position is None:
            raise ConfigurationError(f"unknown node {node_id}")
        return position

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance in metres between two registered nodes.

        Raises:
            ConfigurationError: If either node is not registered.
        """
        positions = self._positions
        try:
            return positions[a].distance_to(positions[b])
        except KeyError:
            unknown = sorted(n for n in (a, b) if n not in positions)
            raise ConfigurationError(f"unknown nodes {unknown}") from None

    def neighbors_of(self, node_id: int) -> List[int]:
        """Node ids ``node_id`` can currently exchange frames with.

        Respects scripted impairments, so this view can never diverge from
        what :meth:`broadcast` actually delivers: a downed node has no
        neighbours at all, downed peers are excluded, and blocked pairs do
        not see each other.  Use :meth:`geometric_neighbors_of` for the raw
        in-transmission-range view.
        """
        if node_id in self._down_nodes:
            # position_of keeps the unknown-id contract identical on both paths.
            self.position_of(node_id)
            return []
        in_range = self.geometric_neighbors_of(node_id)
        down = self._down_nodes
        blocked = self._blocked_links
        if not down and not blocked:
            return in_range
        return [
            other for other in in_range
            if other not in down and not self.is_link_blocked(node_id, other)
        ]

    def geometric_neighbors_of(self, node_id: int) -> List[int]:
        """Node ids within transmission range of ``node_id`` (excluding itself).

        Pure geometry, ignoring scripted impairments — the view the spatial
        index itself answers.  Returned in registration order.  Answers are
        cached under the lazy stamp scheme; callers get a private copy.
        """
        cached = self._cached_payload(self._neighbor_cache, node_id)
        if cached is not None:
            return list(cached)
        origin = self.position_of(node_id)
        positions = self._positions
        # Inlined Position.distance_to and RangePropagationModel.can_receive
        # (same operands, same order → identical IEEE result): this runs once
        # per candidate of every neighbour rebuild.
        hypot = math.hypot
        ox, oy = origin.x, origin.y
        transmission_range = self.propagation.transmission_range
        in_range = [
            other for other in self._grid.neighborhood(node_id)
            if hypot(ox - (p := positions[other]).x, oy - p.y) <= transmission_range
        ]
        in_range.sort(key=self._registration_index.__getitem__)
        cell = self._grid.cell_of(node_id)
        self._neighbor_cache[node_id] = [
            self._move_generation, cell, self._block_stamp(cell), in_range
        ]
        self.stats.neighbor_rebuilds += 1
        return list(in_range)

    @property
    def node_ids(self) -> List[int]:
        """All registered node ids."""
        return list(self._radios)

    # ------------------------------------------------------------------
    # Scripted impairments (scenario-timeline node/link events)
    # ------------------------------------------------------------------
    @property
    def impairment_generation(self) -> int:
        """Monotone counter bumped whenever a scripted impairment changes.

        Lets cached derived views (the mobility manager's link set) detect
        that node-down/link-blocked state changed between their updates
        without recomputing unconditionally.
        """
        return self._impairment_generation

    def set_node_down(self, node_id: int, down: bool = True) -> None:
        """Take a node's radio off the air (or bring it back).

        A downed node's transmissions reach nobody and nothing arriving is
        delivered to it — radio silence at the medium.  The node's own stack
        keeps running, so its neighbours see MAC retry failures and (with
        AODV) route errors, exactly as if the node had moved out of range.
        """
        if node_id not in self._radios:
            raise ConfigurationError(f"unknown node {node_id}")
        changed = (node_id in self._down_nodes) != down
        if not changed:
            return
        if down:
            self._down_nodes.add(node_id)
        else:
            self._down_nodes.discard(node_id)
        self._impairment_generation += 1
        self._delivery_cache.clear()

    def set_link_blocked(self, a: int, b: int, blocked: bool = True) -> None:
        """Block (or unblock) the bidirectional link between two nodes.

        A blocked pair neither decodes nor interferes with each other —
        a scripted obstruction between exactly these two nodes.
        """
        for node_id in (a, b):
            if node_id not in self._radios:
                raise ConfigurationError(f"unknown node {node_id}")
        if a == b:
            raise ConfigurationError("a link needs two distinct nodes")
        key = (a, b) if a < b else (b, a)
        changed = (key in self._blocked_links) != blocked
        if not changed:
            return
        if blocked:
            self._blocked_links.add(key)
        else:
            self._blocked_links.discard(key)
        self._impairment_generation += 1
        self._delivery_cache.clear()

    def is_link_blocked(self, a: int, b: int) -> bool:
        """True while the ``a``–``b`` link is scripted blocked."""
        key = (a, b) if a < b else (b, a)
        return key in self._blocked_links

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def broadcast(self, sender: Radio, packet: Packet, size: int, duration: float,
                  on_sent: Optional[Callable[[], None]] = None) -> _Transmission:
        """Deliver ``packet`` (``size`` bytes) from ``sender`` to every radio
        in range.

        Called by :meth:`repro.phy.radio.Radio.transmit`, which queues the
        returned transmission's ``run_ends`` for the end of the frame; that
        runs the sender's end and then ``on_sent``.  The
        signal reaches each potential receiver after its own (tiny)
        propagation delay; whether it is decodable is decided by the
        receiving radio.  All receivers share the packet as it was sent: a
        sender that goes on changing its packet sends a copy (the MAC copies
        the frame it may retry or hand back), and nobody changes a frame on
        the air.
        """
        stats = self.stats
        stats.transmissions += 1
        stats.bytes_transmitted += size
        sender_id = sender.node_id
        deliveries = self._cached_payload(self._delivery_cache, sender_id)
        if deliveries is None:
            deliveries = self._build_deliveries(sender_id)
        stats.deliveries_attempted += len(deliveries.radios)
        now = self.sim.now
        delays = deliveries.delays
        if deliveries.radios and deliveries.tie_gap <= math.ulp(now + delays[-1]):
            # Two delays this close can round to one arrival time, where the
            # sequence numbers decide: order by the keys as they are now.
            offsets = deliveries.offsets
            deliveries = deliveries.reordered(sorted(
                range(len(offsets)), key=lambda k: (now + delays[k], offsets[k])))
        return _Transmission(self.sim, sender, deliveries, packet, duration, on_sent)

    def _build_deliveries(self, sender_id: int) -> _Deliveries:
        """Compute and cache the in-range receiver list for ``sender_id``.

        Candidates come from the sender's 3×3 grid neighbourhood (every radio
        inside interference range by construction) and are numbered in
        registration order, so each signal start gets the sequence number it
        would from scanning the full radio table — golden traces depend on
        that.  The columns are then put in delay order, the order the signals
        start in.  Distance, class, delay and power are the
        :class:`~repro.phy.propagation.RangePropagationModel` methods' own
        float operations, inlined.
        """
        radios: List[Radio] = []
        receivable: List[bool] = []
        delays: List[float] = []
        powers: List[float] = []
        if sender_id not in self._down_nodes:
            all_radios = self._radios
            down = self._down_nodes
            blocked = self._blocked_links
            candidates = sorted(self._grid.neighborhood(sender_id),
                                key=self._registration_index.__getitem__)
            positions = self._positions
            origin = positions[sender_id]
            ox, oy = origin.x, origin.y
            hypot = math.hypot
            propagation = self.propagation
            transmission_range = propagation.transmission_range
            interference_range = propagation.interference_range
            exponent = -propagation.path_loss_exponent
            for receiver_id in candidates:
                if receiver_id in down:
                    continue
                if blocked and self.is_link_blocked(sender_id, receiver_id):
                    continue
                position = positions[receiver_id]
                distance = hypot(ox - position.x, oy - position.y)
                if distance <= interference_range:
                    radios.append(all_radios[receiver_id])
                    receivable.append(distance <= transmission_range)
                    delays.append(distance / SPEED_OF_LIGHT)
                    powers.append((distance if distance >= 1.0 else 1.0) ** exponent)
        count = len(radios)
        # By delay; a stable sort keeps equal delays in registration order.
        deliveries = _Deliveries(radios, receivable, delays, powers, range(count),
                                 sorted(range(count), key=delays.__getitem__))
        cell = self._grid.cell_of(sender_id)
        self._delivery_cache[sender_id] = [
            self._move_generation, cell, self._block_stamp(cell), deliveries
        ]
        self.stats.delivery_rebuilds += 1
        return deliveries
