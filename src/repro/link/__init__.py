"""Pluggable link layers: the 802.11 wireless plane, wired shared-bus
segments, and the gateway nodes that bridge between them."""

from repro.link.gateway import (
    GatewayAodvRouting,
    GatewayStaticRouting,
    WiredNode,
    make_gateway,
)
from repro.link.plan import (
    LinkPlan,
    WiredSegmentSpec,
    all_wireless_plan,
    single_bus_plan,
)
from repro.link.registry import LINK_LAYERS, LinkLayerProfile
from repro.link.wired import WiredBus, WiredPort, WiredStats

__all__ = [
    "GatewayAodvRouting",
    "GatewayStaticRouting",
    "LINK_LAYERS",
    "LinkLayerProfile",
    "LinkPlan",
    "WiredBus",
    "WiredNode",
    "WiredPort",
    "WiredSegmentSpec",
    "WiredStats",
    "all_wireless_plan",
    "make_gateway",
    "single_bus_plan",
]
