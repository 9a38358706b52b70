"""Transport variants by name.

The paper compares six transport variants (NewReno, Vegas, both with dynamic
ACK thinning, window-clamped NewReno and optimally paced UDP).  Instead of
hard-wiring those variants as ``if/elif`` chains inside the scenario runner,
each variant is a :class:`TransportProfile` — a bundle of factories that
build the sender, the sink and the driving application for one flow — under
its canonical name in the :data:`TRANSPORTS` dict.  The runner only ever
talks to a profile, so adding a variant means adding an entry to that dict
literal::

    "vegas-a4": TransportProfile(
        label="Vegas alpha=4",
        build_sender=_vegas_a4_sender,
        build_sink=_tcp_sink,
    ),

A variant is named by its key (``"vegas-at"``) everywhere;
:func:`transport_key` makes a spelling canonical (case- and
space-insensitive) where it enters a config.  The display label (``"Vegas
ACK Thinning"``) only labels results and figure legends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.app.cbr import CbrApplication
from repro.app.ftp import FtpApplication
from repro.core.registry import lookup
from repro.transport.newreno import NewRenoSender
from repro.transport.sink import AckThinningSink, TcpSink
from repro.transport.udp import UdpSender, UdpSink
from repro.transport.vegas import VegasSender

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.engine import Simulator
    from repro.core.tracing import Tracer
    from repro.experiments.config import ScenarioConfig
    from repro.mac.timing import MacTiming
    from repro.net.address import FlowAddress
    from repro.transport.stats import FlowStats


@dataclass(frozen=True)
class TransportBuildContext:
    """Everything a transport factory may need to build one flow's endpoints.

    Attributes:
        sim: The scenario's simulator.
        flow: Source/destination addresses of the flow.
        stats: Per-flow statistics collector shared by sender and sink.
        config: The scenario configuration running this flow's variant:
            the scenario's own config, with ``variant`` replaced when the
            flow's :class:`~repro.experiments.workload.FlowSpec` names
            another one.  Every other parameter is the scenario's.
        timing: MAC timing derived from the configured bandwidth.
        tracer: Scenario-wide tracer.
        data_limit: Optional data-packet budget of the flow
            (``FlowSpec.packet_limit``); TCP senders stop offering new data
            and CBR sources stop pacing once it is reached.
    """

    sim: "Simulator"
    flow: "FlowAddress"
    stats: "FlowStats"
    config: "ScenarioConfig"
    timing: "MacTiming"
    tracer: "Tracer"
    data_limit: Optional[int] = None


#: Factory building a transport agent (sender or sink) for one flow.
AgentFactory = Callable[[TransportBuildContext], object]
#: Factory building the application driving a sender; receives the context,
#: the freshly built sender and the flow's start time.
ApplicationFactory = Callable[[TransportBuildContext, object, float], object]


def ftp_application(ctx: TransportBuildContext, sender: object,
                    start_time: float) -> FtpApplication:
    """Default application factory: a persistent FTP transfer."""
    return FtpApplication(ctx.sim, sender, start_time=start_time)


def paced_udp_application(ctx: TransportBuildContext, sender: object,
                          start_time: float) -> CbrApplication:
    """CBR application paced at the configured (or analytic) UDP interval."""
    # Imported lazily: repro.experiments must not be imported while
    # repro.experiments.config itself is still being initialised.
    from repro.experiments.paced_udp import default_udp_interval

    interval = ctx.config.udp_interval or default_udp_interval(
        ctx.timing, ctx.config.tcp.mss
    )
    return CbrApplication(ctx.sim, sender, interval=interval, start_time=start_time,
                          packet_limit=ctx.data_limit)


@dataclass(frozen=True)
class TransportProfile:
    """One transport variant; its name is its key in :data:`TRANSPORTS`.

    Attributes:
        label: Human-readable label used in result names and figure legends.
        build_sender: Factory for the sending transport agent.
        build_sink: Factory for the receiving transport agent.
        build_application: Factory for the application driving the sender
            (defaults to a persistent FTP transfer).
    """

    label: str
    build_sender: AgentFactory
    build_sink: AgentFactory
    build_application: ApplicationFactory = ftp_application


def _tcp_sink(ctx: TransportBuildContext) -> TcpSink:
    return TcpSink(ctx.sim, ctx.flow, ctx.stats, mss=ctx.config.tcp.mss,
                   tracer=ctx.tracer)


def _thinning_sink(ctx: TransportBuildContext) -> AckThinningSink:
    return AckThinningSink(ctx.sim, ctx.flow, ctx.stats, mss=ctx.config.tcp.mss,
                           policy=ctx.config.ack_thinning, tracer=ctx.tracer)


def _newreno_sender(ctx: TransportBuildContext) -> NewRenoSender:
    return NewRenoSender(ctx.sim, ctx.flow, ctx.stats, config=ctx.config.tcp,
                         data_limit_packets=ctx.data_limit, tracer=ctx.tracer)


def _newreno_clamped_sender(ctx: TransportBuildContext) -> NewRenoSender:
    return NewRenoSender(ctx.sim, ctx.flow, ctx.stats, config=ctx.config.tcp,
                         max_cwnd=ctx.config.newreno_max_cwnd,
                         data_limit_packets=ctx.data_limit, tracer=ctx.tracer)


def _vegas_sender(ctx: TransportBuildContext) -> VegasSender:
    return VegasSender(ctx.sim, ctx.flow, ctx.stats, config=ctx.config.tcp,
                       parameters=ctx.config.vegas_parameters(),
                       data_limit_packets=ctx.data_limit, tracer=ctx.tracer)


def _udp_sender(ctx: TransportBuildContext) -> UdpSender:
    return UdpSender(ctx.sim, ctx.flow, ctx.stats, payload_size=ctx.config.tcp.mss,
                     tracer=ctx.tracer)


def _udp_sink(ctx: TransportBuildContext) -> UdpSink:
    return UdpSink(ctx.sim, ctx.flow, ctx.stats, tracer=ctx.tracer)


#: Every transport variant, by canonical name: the paper's six and one
#: combined variant.
TRANSPORTS: Dict[str, TransportProfile] = {
    "newreno": TransportProfile(
        label="NewReno",
        build_sender=_newreno_sender,
        build_sink=_tcp_sink,
    ),
    "vegas": TransportProfile(
        label="Vegas",
        build_sender=_vegas_sender,
        build_sink=_tcp_sink,
    ),
    "newreno-at": TransportProfile(
        label="NewReno ACK Thinning",
        build_sender=_newreno_sender,
        build_sink=_thinning_sink,
    ),
    "vegas-at": TransportProfile(
        label="Vegas ACK Thinning",
        build_sender=_vegas_sender,
        build_sink=_thinning_sink,
    ),
    # The optimal-window variants clamp the window at
    # ``ScenarioConfig.newreno_max_cwnd`` (MaxWin = 3 by default, the optimal
    # NewReno window on the paper's 7-hop chain; Fu et al.).
    "newreno-optwin": TransportProfile(
        label="NewReno Optimal Window",
        build_sender=_newreno_clamped_sender,
        build_sink=_tcp_sink,
    ),
    "paced-udp": TransportProfile(
        label="Paced UDP",
        build_sender=_udp_sender,
        build_sink=_udp_sink,
        build_application=paced_udp_application,
    ),
    # ACK thinning + window clamp: shows that a new variant is a table
    # entry, not a runner change.
    "newreno-at-optwin": TransportProfile(
        label="NewReno ACK Thinning Optimal Window",
        build_sender=_newreno_clamped_sender,
        build_sink=_thinning_sink,
    ),
}


def transport_key(variant: str) -> str:
    """Canonical key of a variant name (case- and space-insensitive).

    Raises:
        ConfigurationError: If the variant is not a key of :data:`TRANSPORTS`.
    """
    return lookup(TRANSPORTS, "transport variant", variant)
