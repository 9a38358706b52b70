"""Transport layer: TCP NewReno, TCP Vegas, ACK thinning sinks, UDP/paced UDP.

Variants are chosen by name: :data:`repro.transport.registry.TRANSPORTS` is a
dict from canonical variant name to a
:class:`~repro.transport.registry.TransportProfile` factory bundle, which the
scenario runner uses to build senders, sinks and driving applications.
"""

from repro.transport.ack_thinning import AckThinningPolicy
from repro.transport.newreno import NewRenoSender
from repro.transport.registry import (
    TRANSPORTS,
    TransportBuildContext,
    TransportProfile,
    transport_key,
)
from repro.transport.rtt import RttEstimator
from repro.transport.sink import AckThinningSink, TcpSink
from repro.transport.stats import FlowStats
from repro.transport.tcp_base import TcpConfig, TcpSender, TransportAgent
from repro.transport.udp import UdpSender, UdpSink
from repro.transport.vegas import VegasParameters, VegasSender

__all__ = [
    "AckThinningPolicy",
    "TRANSPORTS",
    "TransportBuildContext",
    "TransportProfile",
    "transport_key",
    "NewRenoSender",
    "RttEstimator",
    "AckThinningSink",
    "TcpSink",
    "FlowStats",
    "TcpConfig",
    "TcpSender",
    "TransportAgent",
    "UdpSender",
    "UdpSink",
    "VegasParameters",
    "VegasSender",
]
