"""Backbone topology: a wired spine of gateways, each serving a wireless cell.

``backbone_topology(cells=M, cell_hops=K)`` builds M gateway nodes joined by
one shared Ethernet-style bus (the spine) plus M wireless chain cells of K
hops hanging off the gateways.  Cells are separated far beyond radio range,
so each cell is an isolated 802.11 collision domain; all inter-cell traffic
crosses the spine through the gateways.  The default traffic pattern sends
one flow from the tail of each cell to the tail of the next, forcing every
flow through ``K`` wireless hops, the wired spine and ``K`` more wireless
hops — the paper's chain scenario stretched across a heterogeneous path.

Node numbering (stable under ``cells``/``cell_hops`` changes)::

    gateway of cell i           -> i                        (0 .. M-1)
    hop j of cell i (1-based)   -> M + i*K + (j-1)
    tail of cell i              -> M + i*K + (K-1)

The topology carries its :class:`~repro.link.plan.LinkPlan` as
``Topology.link_plan``: gateways own a radio *and* a spine port, cell members
are wireless-only, and each cell is one addressing subnet fronted by its
gateway.
"""

from __future__ import annotations

from typing import Dict

from repro.core.errors import ConfigurationError
from repro.link.plan import LinkPlan, WiredSegmentSpec
from repro.phy.propagation import Position
from repro.topology.base import Topology

#: Spacing between consecutive cell members (metres); matches the paper's
#: 200 m chain spacing, i.e. just inside transmission range.
DEFAULT_SPACING = 200.0

#: Distance between cell rows (metres); far beyond carrier-sense range, so
#: cells never interfere with each other.
DEFAULT_CELL_SEPARATION = 10_000.0


def backbone_tail(cells: int, cell_hops: int, cell: int) -> int:
    """Node id of the last (farthest-from-gateway) member of ``cell``."""
    return cells + cell * cell_hops + (cell_hops - 1)


def backbone_topology(
    cells: int = 2,
    cell_hops: int = 7,
    spacing: float = DEFAULT_SPACING,
    cell_separation: float = DEFAULT_CELL_SEPARATION,
    wired_rate_mbps: float = 10.0,
    wired_propagation_delay: float = 5e-6,
) -> Topology:
    """Build a backbone of ``cells`` gateways bridging ``cell_hops``-hop cells.

    Args:
        cells: Number of gateways (= wireless cells) on the spine.
        cell_hops: Wireless hops from each gateway to its cell's tail.
        spacing: Distance between consecutive cell members in metres.
        cell_separation: Distance between cell rows in metres; keep it far
            above the interference range so cells stay independent.
        wired_rate_mbps: Spine bus rate in Mb/s.
        wired_propagation_delay: Spine bus one-way propagation delay in
            seconds.

    Returns:
        A :class:`~repro.topology.base.Topology` with one tail-to-next-tail
        flow per cell and a :class:`~repro.link.plan.LinkPlan` describing the
        spine.
    """
    if cells < 2:
        raise ConfigurationError("backbone needs at least 2 cells")
    if cell_hops < 1:
        raise ConfigurationError("backbone cells need at least 1 hop")

    positions: Dict[int, Position] = {}
    subnet_of: Dict[int, int] = {}
    for cell in range(cells):
        row_y = cell * cell_separation
        positions[cell] = Position(0.0, row_y)
        subnet_of[cell] = cell
        for hop in range(cell_hops):
            node_id = cells + cell * cell_hops + hop
            positions[node_id] = Position((hop + 1) * spacing, row_y)
            subnet_of[node_id] = cell

    flows = [
        (backbone_tail(cells, cell_hops, cell),
         backbone_tail(cells, cell_hops, (cell + 1) % cells))
        for cell in range(cells)
    ]

    plan = LinkPlan(
        wireless_nodes=tuple(sorted(positions)),
        segments=(WiredSegmentSpec(
            nodes=tuple(range(cells)),
            rate_mbps=wired_rate_mbps,
            propagation_delay=wired_propagation_delay,
        ),),
        gateways=tuple(range(cells)),
        subnet_of=subnet_of,
        gateway_of_subnet={cell: cell for cell in range(cells)},
    )

    return Topology(
        name=f"backbone-{cells}x{cell_hops}",
        positions=positions,
        flows=flows,
        link_plan=plan,
    )
