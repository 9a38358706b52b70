"""Uniform-grid spatial index over node positions.

The index buckets 2-D positions into square cells of a fixed ``cell_size``.
Every proximity query the stack needs — "who can hear this transmission?",
"who is a transmission-range neighbour?" — has a radius no larger than the
cell side, so the answer is always contained in the 3×3 block of cells around
the query node.  That turns the channel's O(N) per-sender scans (O(N²) per
mobility update across all senders) into O(k) neighbourhood walks, where k is
the node count of nine cells — a constant under constant node density.

The boundary case is handled exactly: cells are bucketed with a side a few
ulps *larger* than ``cell_size`` (relative ``_CELL_PADDING``), so two nodes
whose rounded Euclidean distance is ``<= cell_size`` — the comparison every
range predicate uses — always land in adjacent cells, even when IEEE rounding
makes the computed distance equal the radius while the raw coordinate span is
infinitesimally wider (e.g. one coordinate a denormal below a cell boundary
and the other exactly one radius away).  Membership queries are conservative
(the 3×3 block may contain out-of-range nodes); callers filter by Euclidean
distance.

Used by :class:`repro.phy.channel.WirelessChannel` (cell side = interference
range) and by :meth:`repro.topology.base.Topology.connectivity_graph` for
large node populations (cell side = transmission range).
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from repro.core.errors import ConfigurationError
from repro.phy.propagation import Position

#: A cell address: integer (column, row) coordinates.
CellKey = Tuple[int, int]

#: The 3×3 block offsets, in fixed scan order (determinism of iteration is
#: restored by callers sorting on registration order — see ``neighborhood``).
#: Public so cache layers keyed on cell blocks (the channel's lazy
#: generation-stamped invalidation) can walk the same block the queries use.
BLOCK_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 0), (0, 1),
    (1, -1), (1, 0), (1, 1),
)

#: Relative padding applied to the bucketing cell side.  A computed distance
#: ``d <= cell_size`` bounds the true coordinate span by ``cell_size`` only up
#: to a few rounding errors (one from the subtraction, one from the hypot);
#: padding the side by ~2^-23 absorbs them with orders of magnitude to spare,
#: while growing the scanned area by a negligible 4e-7.
_CELL_PADDING = 1.0 + 1e-7


class GridIndex:
    """Spatial hash of node ids into square cells of side ``cell_size``.

    Args:
        cell_size: Cell side in metres; must be at least the largest query
            radius the caller will use (the channel passes its interference
            range).

    The index stores ids only — positions live with the owner (the channel's
    ``_positions`` table); :meth:`move` is told the new position and updates
    the bucketing.
    """

    __slots__ = ("cell_size", "_bucket_size", "_cell_of", "_cells")

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0 or not math.isfinite(cell_size):
            raise ConfigurationError(
                f"cell_size must be positive and finite, got {cell_size!r}"
            )
        self.cell_size = cell_size
        self._bucket_size = cell_size * _CELL_PADDING
        self._cell_of: Dict[int, CellKey] = {}
        self._cells: Dict[CellKey, Set[int]] = {}

    def __len__(self) -> int:
        return len(self._cell_of)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._cell_of

    def cell_key(self, position: Position) -> CellKey:
        """The cell address containing ``position``."""
        size = self._bucket_size
        return (math.floor(position.x / size), math.floor(position.y / size))

    def cell_of(self, node_id: int) -> CellKey:
        """The cell address ``node_id`` is currently bucketed in."""
        try:
            return self._cell_of[node_id]
        except KeyError:
            raise ConfigurationError(f"unknown node {node_id}") from None

    def insert(self, node_id: int, position: Position) -> None:
        """Add a node to the index.

        Raises:
            ConfigurationError: If the node is already indexed.
        """
        if node_id in self._cell_of:
            raise ConfigurationError(f"node {node_id} already indexed")
        key = self.cell_key(position)
        self._cell_of[node_id] = key
        self._cells.setdefault(key, set()).add(node_id)

    def move(self, node_id: int, position: Position) -> bool:
        """Re-bucket a node at its new position.

        Returns:
            True if the node changed cell (its neighbourhood membership may
            have changed), False if it stayed within its cell.
        """
        old = self.cell_of(node_id)
        new = self.cell_key(position)
        if new == old:
            return False
        bucket = self._cells[old]
        bucket.discard(node_id)
        if not bucket:
            del self._cells[old]
        self._cell_of[node_id] = new
        self._cells.setdefault(new, set()).add(node_id)
        return True

    def remove(self, node_id: int) -> None:
        """Drop a node from the index (unknown ids are rejected)."""
        key = self.cell_of(node_id)
        del self._cell_of[node_id]
        bucket = self._cells[key]
        bucket.discard(node_id)
        if not bucket:
            del self._cells[key]

    def neighborhood(self, node_id: int) -> List[int]:
        """All node ids in the 3×3 cell block around ``node_id`` (excluding it).

        This is the superset of every node within ``cell_size`` metres of the
        query node; element order is unspecified (sets) — callers needing a
        deterministic order must sort.  Returns a plain list built with
        C-level bucket extends: this is the innermost loop of every
        delivery-list and neighbour rebuild, and at 10k nodes the per-yield
        resumption cost of a generator is the same order as the distance
        filter itself.
        """
        cx, cy = self.cell_of(node_id)
        get_bucket = self._cells.get
        members: List[int] = []
        for dx, dy in BLOCK_OFFSETS:
            bucket = get_bucket((cx + dx, cy + dy))
            if bucket:
                members.extend(bucket)
        # The query node always sits in the centre bucket — drop it once.
        members.remove(node_id)
        return members

    def near(self, position: Position) -> List[int]:
        """All node ids in the 3×3 cell block around an arbitrary position."""
        cx, cy = self.cell_key(position)
        get_bucket = self._cells.get
        members: List[int] = []
        for dx, dy in BLOCK_OFFSETS:
            bucket = get_bucket((cx + dx, cy + dy))
            if bucket:
                members.extend(bucket)
        return members
