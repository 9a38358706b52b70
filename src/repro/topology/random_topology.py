"""Random topology: 120 nodes on 2500 m × 1000 m with ten concurrent flows.

The paper places 120 nodes uniformly at random on a 2500 × 1000 m² area and
sets up 10 FTP connections between randomly selected sources and destinations;
following Bettstetter's connectivity analysis the node density is high enough
that the network is connected with probability 99.9 %.  The generator below
resamples the placement until the connectivity graph is connected (bounded
number of attempts) and then draws flow endpoints that are at least one hop
apart, so every generated scenario is actually runnable.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from repro.core.errors import TopologyError
from repro.phy.propagation import Position, RangePropagationModel
from repro.topology.base import ConnectivityGraph, FlowSpec, Topology

#: Defaults from the paper.
DEFAULT_NODE_COUNT = 120
DEFAULT_AREA: Tuple[float, float] = (2500.0, 1000.0)
DEFAULT_FLOW_COUNT = 10

#: City-scale defaults: 1000 nodes on 6500 m × 2600 m keeps the node density
#: (~59 nodes/km²) close to the paper's 120-node field (48 nodes/km²), so per
#: Bettstetter's analysis the placement is connected with high probability
#: while the diameter grows to genuinely metropolitan hop counts.
CITY_NODE_COUNT = 1000
CITY_AREA: Tuple[float, float] = (6500.0, 2600.0)
CITY_FLOW_COUNT = 10


def random_topology(
    node_count: int = DEFAULT_NODE_COUNT,
    area: Tuple[float, float] = DEFAULT_AREA,
    flow_count: int = DEFAULT_FLOW_COUNT,
    seed: int = 1,
    propagation: Optional[RangePropagationModel] = None,
    min_flow_hops: int = 2,
    max_attempts: int = 50,
) -> Topology:
    """Generate a connected random topology with random flows.

    Args:
        node_count: Number of nodes to place.
        area: (width, height) of the deployment area in metres.
        flow_count: Number of concurrent flows to create.
        seed: RNG seed; the same seed reproduces the same topology.
        propagation: Range model used for the connectivity check.
        min_flow_hops: Minimum hop distance between a flow's endpoints, so
            flows actually exercise multihop forwarding.
        max_attempts: Placement attempts before giving up on connectivity.

    Returns:
        A connected :class:`Topology` with ``flow_count`` flows.

    Raises:
        TopologyError: If no connected placement is found within
            ``max_attempts`` or not enough distinct flow pairs exist.
    """
    propagation = propagation or RangePropagationModel()
    rng = random.Random(seed)
    width, height = area

    for _ in range(max_attempts):
        positions = {
            node: Position(x=rng.uniform(0, width), y=rng.uniform(0, height))
            for node in range(node_count)
        }
        topology = Topology(name=f"random-{node_count}", positions=positions)
        graph = topology.connectivity_graph(propagation)
        if graph.is_connected():
            topology.flows = _draw_flows(
                topology, flow_count, rng, graph, min_flow_hops
            )
            return topology
    raise TopologyError(
        f"could not generate a connected topology of {node_count} nodes "
        f"in {max_attempts} attempts"
    )


def city_topology(
    node_count: int = CITY_NODE_COUNT,
    area: Optional[Tuple[float, float]] = None,
    flow_count: int = CITY_FLOW_COUNT,
    seed: int = 1,
    propagation: Optional[RangePropagationModel] = None,
    min_flow_hops: int = 3,
    max_attempts: int = 50,
) -> Topology:
    """Generate a connected city-scale random mesh (1000 nodes by default).

    A thin preset over :func:`random_topology` at roughly the paper's node
    density but a much larger area: same placement/resampling procedure, same
    flow drawing, with a higher default minimum flow hop count so the flows
    cross a meaningful slice of the metro area.  When ``area`` is omitted the
    1000-node reference area (6500 m × 2600 m, ~59 nodes/km²) is scaled by
    ``sqrt(node_count / 1000)`` per side, keeping the density — and with it
    Bettstetter's connectivity guarantee — constant from 1k to 10k nodes.
    The channel's grid spatial index is what makes populations of this size
    simulate in reasonable time; the generator itself also goes through the
    grid-indexed connectivity check.

    Returns:
        A connected :class:`Topology` named ``city-<node_count>``.
    """
    if area is None:
        scale = math.sqrt(node_count / CITY_NODE_COUNT)
        area = (CITY_AREA[0] * scale, CITY_AREA[1] * scale)
    topology = random_topology(
        node_count=node_count,
        area=area,
        flow_count=flow_count,
        seed=seed,
        propagation=propagation,
        min_flow_hops=min_flow_hops,
        max_attempts=max_attempts,
    )
    topology.name = f"city-{node_count}"
    return topology


def _draw_flows(
    topology: Topology,
    flow_count: int,
    rng: random.Random,
    graph: ConnectivityGraph,
    min_flow_hops: int,
) -> List[FlowSpec]:
    nodes = list(topology.positions)
    flows: List[FlowSpec] = []
    used: set[int] = set()
    attempts = 0
    while len(flows) < flow_count:
        attempts += 1
        if attempts > 10_000:
            raise TopologyError("could not find enough distinct flow endpoint pairs")
        source, destination = rng.sample(nodes, 2)
        if source in used or destination in used:
            continue
        # The generator only draws flows on connected placements, so a path
        # always exists; the min-hop test only needs the truncated BFS ball
        # of radius ``min_flow_hops - 1`` around the source — O(local) on a
        # 10k-node mesh instead of a full-graph shortest-path search, with
        # accept/reject decisions (and the RNG draw sequence) identical.
        if destination in graph.reach(source, cutoff=min_flow_hops - 1):
            continue
        flows.append(FlowSpec(source=source, destination=destination))
        used.add(source)
        used.add(destination)
    return flows
