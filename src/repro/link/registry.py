"""Named link-layer registry.

Mirrors :mod:`repro.transport.registry`, :mod:`repro.topology.registry`,
:mod:`repro.mobility.registry` and the executor-backend registry for the link
layer: every profile registers a *plan builder* in :data:`LINK_LAYERS` under
a short name, so a scenario selects its link layer declaratively
(``ScenarioConfig(link_layer="wired")``), the Study API sweeps it like any
other config axis (``axes={"link_layer": ["wireless", "wired"]}``) and the
command line exposes it as ``python -m repro run --link-layer NAME`` /
``python -m repro list link-layers``.

Two profiles ship built in:

``wireless``
    Every node gets an 802.11 MAC on the shared
    :class:`~repro.phy.channel.WirelessChannel` — the historical behaviour
    and the default (existing scenarios are bit-identical under it).

``wired``
    Every node gets a port on one shared Ethernet-style CSMA/CD bus
    (:class:`~repro.link.wired.WiredBus`), rate and propagation delay taken
    from ``ScenarioConfig.wired_rate_mbps`` / ``wired_propagation_delay``.

Topologies that carry their own :class:`~repro.link.plan.LinkPlan`
(``topology.link_plan``, e.g. the ``backbone`` family's wired spine of
gateways) override the profile — the plan describes a heterogeneous layout
no single profile name could.

Registering a custom profile::

    from repro.link.registry import LINK_LAYERS, LinkLayerProfile

    LINK_LAYERS.register(LinkLayerProfile(
        name="dual-bus",
        build_plan=my_plan_builder,       # (topology, config) -> LinkPlan
        description="two bridged buses",
    ))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.registry import NamedRegistry
from repro.link.plan import LinkPlan, all_wireless_plan, single_bus_plan


@dataclass(frozen=True)
class LinkLayerProfile:
    """One registered link-layer family.

    Attributes:
        name: Canonical registry key (``"wireless"``, ``"wired"``).
        build_plan: Callable ``(topology, config) -> LinkPlan`` partitioning
            the topology's nodes over the link layers.
        description: One-line human description (``python -m repro list
            link-layers``).
    """

    name: str
    build_plan: Callable[[object, object], LinkPlan]
    description: str = ""


#: Every link-layer profile, by name.
LINK_LAYERS = NamedRegistry("link layer")


# ======================================================================
# Built-in registrations.
# ======================================================================
def _wireless_plan(topology, config) -> LinkPlan:
    return all_wireless_plan(topology.node_ids)


def _wired_plan(topology, config) -> LinkPlan:
    return single_bus_plan(topology.node_ids,
                           rate_mbps=config.wired_rate_mbps,
                           propagation_delay=config.wired_propagation_delay)


LINK_LAYERS.register(LinkLayerProfile(
    name="wireless",
    build_plan=_wireless_plan,
    description="802.11 MAC on the shared radio channel for every node "
                "(default)",
))

LINK_LAYERS.register(LinkLayerProfile(
    name="wired",
    build_plan=_wired_plan,
    description="one shared Ethernet-style CSMA/CD bus carrying every node",
))
