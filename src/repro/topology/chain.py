"""The h-hop chain topology (Figure 1 of the paper).

An equally spaced chain of ``h + 1`` nodes, 200 m apart, with a single flow
from the leftmost node (the sender) to the rightmost node (the receiver).
With a 250 m transmission range each node only reaches its direct neighbours,
while the 550 m interference range means a transmission at node *i* interferes
up to node *i ± 2* — which is exactly why node *i + 3* is a hidden terminal for
the link *i → i + 1*.
"""

from __future__ import annotations

from repro.core.errors import TopologyError
from repro.phy.propagation import Position
from repro.topology.base import Topology

#: Node spacing used throughout the paper (metres).
DEFAULT_SPACING = 200.0


def chain_topology(hops: int, spacing: float = DEFAULT_SPACING) -> Topology:
    """Build an h-hop chain with one end-to-end flow.

    Args:
        hops: Number of hops ``h`` (the chain has ``h + 1`` nodes).
        spacing: Distance between adjacent nodes in metres.

    Returns:
        A :class:`Topology` named ``chain-<h>`` whose single flow runs from
        node 0 to node ``h``.

    Raises:
        TopologyError: If ``hops`` is not positive.
    """
    if hops < 1:
        raise TopologyError("a chain needs at least one hop")
    positions = {i: Position(x=i * spacing, y=0.0) for i in range(hops + 1)}
    flows = [(0, hops)]
    return Topology(name=f"chain-{hops}", positions=positions, flows=flows)


def hidden_terminal_pairs(hops: int) -> list[tuple[int, int]]:
    """Pairs ``(transmitter, hidden_terminal)`` for an h-hop chain.

    For a transmission from node ``i`` to ``i + 1``, node ``i + 3`` (when it
    exists) is outside carrier-sense range of ``i`` but inside interference
    range of ``i + 1`` — the classic hidden terminal of Section 4.3.
    """
    pairs = []
    for transmitter in range(hops):
        hidden = transmitter + 3
        if hidden <= hops:
            pairs.append((transmitter, hidden))
    return pairs
