"""Link layers beside the 802.11 plane: wired shared-bus segments, the
gateway nodes that bridge them into the wireless mesh, and the
:class:`LinkPlan` a topology carries to say which node sits where."""

from repro.link.gateway import (
    GatewayAodvRouting,
    GatewayStaticRouting,
    WiredNode,
    make_gateway,
)
from repro.link.plan import LinkPlan, WiredSegmentSpec
from repro.link.wired import WiredBus, WiredPort, WiredStats

__all__ = [
    "GatewayAodvRouting",
    "GatewayStaticRouting",
    "LinkPlan",
    "WiredBus",
    "WiredNode",
    "WiredPort",
    "WiredSegmentSpec",
    "WiredStats",
    "make_gateway",
]
