"""The 21-node grid topology with six competing flows (Figure 15).

The grid has 7 columns and 3 rows of nodes, horizontally and vertically
adjacent nodes 200 m apart.  Six FTP flows compete: three horizontal flows
(one per row, left to right) and three vertical flows (top to bottom).  The
paper's figure does not give the exact columns of the vertical flows; we place
them on evenly spaced columns (second, middle and second-to-last), which keeps
every flow interfering with all others as the paper describes — a deliberate
deviation from the (under-specified) paper setup.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.phy.propagation import Position
from repro.topology.base import Topology

#: Grid dimensions used by the paper.
GRID_COLUMNS = 7
GRID_ROWS = 3
#: Node spacing in metres.
GRID_SPACING = 200.0
#: Columns (0-based) carrying the three vertical flows FTP4..FTP6.
VERTICAL_FLOW_COLUMNS: Tuple[int, int, int] = (1, 3, 5)


def node_id_at(row: int, column: int, columns: int = GRID_COLUMNS) -> int:
    """Row-major node id for a grid coordinate."""
    return row * columns + column


def grid_topology(
    columns: int = GRID_COLUMNS,
    rows: int = GRID_ROWS,
    spacing: float = GRID_SPACING,
    vertical_flow_columns: Tuple[int, ...] = VERTICAL_FLOW_COLUMNS,
) -> Topology:
    """Build the 21-node grid with three horizontal and three vertical flows.

    Args:
        columns: Number of grid columns (7 in the paper).
        rows: Number of grid rows (3 in the paper).
        spacing: Node spacing in metres (200 in the paper).
        vertical_flow_columns: Columns carrying the vertical flows.

    Returns:
        A :class:`Topology` whose flows are ordered FTP1..FTP3 (horizontal,
        top row first) then FTP4..FTP6 (vertical, left column first).
    """
    positions = {}
    for row in range(rows):
        for column in range(columns):
            positions[node_id_at(row, column, columns)] = Position(
                x=column * spacing, y=row * spacing
            )

    flows: List[Tuple[int, int]] = []
    # FTP1..FTP3: horizontal flows along each row, left to right.
    for row in range(rows):
        flows.append((node_id_at(row, 0, columns),
                      node_id_at(row, columns - 1, columns)))
    # FTP4..FTP6: vertical flows along selected columns, top to bottom.
    for column in vertical_flow_columns:
        flows.append((node_id_at(0, column, columns),
                      node_id_at(rows - 1, column, columns)))
    return Topology(name=f"grid-{columns}x{rows}", positions=positions, flows=flows)
