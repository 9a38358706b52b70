"""Link plans: which nodes sit on which link layer.

A :class:`LinkPlan` is the bridge between a topology and the scenario runner's
node construction.  It partitions the topology's nodes into the wireless plane
(802.11 MAC + shared :class:`~repro.phy.channel.WirelessChannel`) and zero or
more wired shared-bus segments (:class:`~repro.link.wired.WiredBus`), and
names the *gateway* nodes that own one interface on each side and forward
between them.

A topology carries its plan as data (``Topology.link_plan``).  The default,
``None``, puts every node on the radio plane — every scenario of the paper.
:func:`repro.topology.backbone.backbone_topology` returns a topology whose
plan describes its wired spine of gateways; a network of wired nodes only is
a plan with one :class:`WiredSegmentSpec` over every node::

    Topology(name="bus", positions=positions,
             link_plan=LinkPlan(segments=(WiredSegmentSpec(
                 nodes=tuple(sorted(positions))),)))

Addressing is a static netmask split: :attr:`LinkPlan.subnet_of` assigns each
wireless node (gateways included) to a numbered subnet, and
:attr:`LinkPlan.gateway_of_subnet` names the gateway that fronts each subnet
on the wired side.  Gateways forward off-subnet packets over their wired
port; wired segments use directly-connected routes between their members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class WiredSegmentSpec:
    """One shared-bus Ethernet-style segment.

    Attributes:
        nodes: Node ids attached to the bus (each gets one port).
        rate_mbps: Transmission rate of the bus in Mb/s.
        propagation_delay: One-way propagation delay across the bus in
            seconds (also the collision vulnerability window).
    """

    nodes: Tuple[int, ...]
    rate_mbps: float = 10.0
    propagation_delay: float = 5e-6

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ConfigurationError(
                "a wired segment needs at least two attached nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ConfigurationError(
                f"duplicate node ids on wired segment: {self.nodes}")
        if self.rate_mbps <= 0:
            raise ConfigurationError("wired segment rate must be positive")
        if self.propagation_delay < 0:
            raise ConfigurationError(
                "wired segment propagation delay must be non-negative")


@dataclass(frozen=True)
class LinkPlan:
    """Partition of a topology's nodes over the available link layers.

    Attributes:
        wireless_nodes: Nodes with an 802.11 radio on the shared channel.
        segments: Wired shared-bus segments.
        gateways: Nodes owning both a radio and a wired port; must appear in
            ``wireless_nodes`` and on exactly one segment.
        subnet_of: Wireless subnet id per wireless node (gateways belong to
            the subnet they serve).  Empty for single-subnet plans.
        gateway_of_subnet: Gateway node fronting each subnet on the wired
            side.  Empty for single-subnet plans.
    """

    wireless_nodes: Tuple[int, ...] = ()
    segments: Tuple[WiredSegmentSpec, ...] = ()
    gateways: Tuple[int, ...] = ()
    subnet_of: Mapping[int, int] = field(default_factory=dict)
    gateway_of_subnet: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        wireless = set(self.wireless_nodes)
        seen_wired: Dict[int, int] = {}
        for index, segment in enumerate(self.segments):
            for node_id in segment.nodes:
                if node_id in seen_wired:
                    raise ConfigurationError(
                        f"node {node_id} appears on more than one wired segment")
                seen_wired[node_id] = index
        for gateway in self.gateways:
            if gateway not in wireless:
                raise ConfigurationError(
                    f"gateway {gateway} has no wireless interface")
            if gateway not in seen_wired:
                raise ConfigurationError(
                    f"gateway {gateway} is not attached to any wired segment")
        for node_id in seen_wired:
            if node_id in wireless and node_id not in set(self.gateways):
                raise ConfigurationError(
                    f"node {node_id} is on both planes but not a gateway")

    def segment_of(self, node_id: int) -> int:
        """Index of the segment a node is attached to.

        Raises:
            ConfigurationError: If the node is on no wired segment.
        """
        for index, segment in enumerate(self.segments):
            if node_id in segment.nodes:
                return index
        raise ConfigurationError(
            f"node {node_id} is not attached to any wired segment")

    def subnet_members(self, subnet: int) -> FrozenSet[int]:
        """All wireless nodes assigned to a subnet (gateway included)."""
        return frozenset(node_id for node_id, owner in self.subnet_of.items()
                         if owner == subnet)

