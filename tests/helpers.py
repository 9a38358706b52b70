"""Shared test helpers.

Provides a loopback "network" that connects a TCP sender and sink directly
through the event engine (configurable one-way delay, scripted per-sequence
losses), so the congestion-control logic can be unit tested without the full
PHY/MAC/routing stack, plus small factory helpers used across test modules.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional, Set

from repro.core.engine import Simulator
from repro.link.plan import LinkPlan, WiredSegmentSpec
from repro.net.address import FlowAddress
from repro.net.packet import Packet
from repro.phy.channel import WirelessChannel
from repro.phy.propagation import Position
from repro.phy.radio import Radio
from repro.topology.base import Topology
from repro.transport.newreno import NewRenoSender
from repro.transport.sink import AckThinningSink, TcpSink
from repro.transport.stats import FlowStats
from repro.transport.tcp_base import TcpConfig, TcpSender
from repro.transport.vegas import VegasParameters, VegasSender

DEFAULT_FLOW = FlowAddress(src_node=0, src_port=5001, dst_node=1, dst_port=6001)


class LoopbackNetwork:
    """Connects one TCP sender and one sink with a fixed one-way delay.

    Args:
        sim: Simulation engine.
        delay: One-way propagation delay in seconds.
        drop_data_seqs: Data segment sequence numbers to drop exactly once.
        drop_ack_numbers: Cumulative ACK values to drop exactly once.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float = 0.01,
        drop_data_seqs: Optional[Iterable[int]] = None,
        drop_ack_numbers: Optional[Iterable[int]] = None,
    ) -> None:
        self.sim = sim
        self.delay = delay
        self._pending_data_drops: Set[int] = set(drop_data_seqs or ())
        self._pending_ack_drops: Set[int] = set(drop_ack_numbers or ())
        self.sender: Optional[TcpSender] = None
        self.sink: Optional[TcpSink] = None
        self.data_packets_carried = 0
        self.ack_packets_carried = 0

    def connect(self, sender: TcpSender, sink: TcpSink) -> None:
        """Attach the two endpoints to this loopback network."""
        self.sender = sender
        self.sink = sink
        sender.attach(self._carry_to_sink)
        sink.attach(self._carry_to_sender)

    def _carry_to_sink(self, packet: Packet) -> None:
        assert self.sink is not None
        tcp = packet.require_tcp()
        if tcp.seq in self._pending_data_drops:
            self._pending_data_drops.discard(tcp.seq)
            return
        self.data_packets_carried += 1
        self.sim.schedule(self.delay, self.sink.receive, packet)

    def _carry_to_sender(self, packet: Packet) -> None:
        assert self.sender is not None
        tcp = packet.require_tcp()
        if tcp.ack in self._pending_ack_drops:
            self._pending_ack_drops.discard(tcp.ack)
            return
        self.ack_packets_carried += 1
        self.sim.schedule(self.delay, self.sender.receive, packet)


def make_flow_stats(flow_id: int = 1, batch_size: int = 50) -> FlowStats:
    """FlowStats with a small batch size suitable for short unit-test runs."""
    return FlowStats(flow_id=flow_id, batch_size=batch_size)


def build_newreno_pair(
    sim: Simulator,
    delay: float = 0.01,
    drop_data_seqs: Optional[Iterable[int]] = None,
    drop_ack_numbers: Optional[Iterable[int]] = None,
    data_limit: Optional[int] = None,
    config: Optional[TcpConfig] = None,
    thinning: bool = False,
):
    """Create a NewReno sender + sink joined by a loopback network.

    Returns:
        ``(sender, sink, stats, network)``.
    """
    stats = make_flow_stats()
    sender = NewRenoSender(
        sim, DEFAULT_FLOW, stats, config=config or TcpConfig(),
        data_limit_packets=data_limit,
    )
    sink_cls = AckThinningSink if thinning else TcpSink
    sink = sink_cls(sim, DEFAULT_FLOW, stats)
    network = LoopbackNetwork(
        sim, delay=delay, drop_data_seqs=drop_data_seqs, drop_ack_numbers=drop_ack_numbers
    )
    network.connect(sender, sink)
    return sender, sink, stats, network


def build_vegas_pair(
    sim: Simulator,
    delay: float = 0.01,
    drop_data_seqs: Optional[Iterable[int]] = None,
    data_limit: Optional[int] = None,
    alpha: float = 2.0,
    config: Optional[TcpConfig] = None,
):
    """Create a Vegas sender + standard sink joined by a loopback network.

    Returns:
        ``(sender, sink, stats, network)``.
    """
    stats = make_flow_stats()
    sender = VegasSender(
        sim, DEFAULT_FLOW, stats, config=config or TcpConfig(),
        parameters=VegasParameters(alpha=alpha, beta=alpha, gamma=alpha),
        data_limit_packets=data_limit,
    )
    sink = TcpSink(sim, DEFAULT_FLOW, stats)
    network = LoopbackNetwork(sim, delay=delay, drop_data_seqs=drop_data_seqs)
    network.connect(sender, sink)
    return sender, sink, stats, network


def run_in_place(sim: Simulator, time: float, sequence: int) -> bool:
    """Run the edge keyed ``(time, sequence)`` in place if the engine's rule
    lets it (``repro.core.engine``, *Edge keys*), as the channel's chain
    loops do: key inside the run's horizon and before the queue head's,
    tombstones included.  Then the clock is on the edge and True comes back;
    False means the caller queues it under its key."""
    queue = sim._queue
    if time > sim._in_place_until or (queue and queue[0][:2] < [time, sequence]):
        return False
    sim.now = time
    sim.now_sequence = sequence
    sim.edges_in_place += 1
    return True


def reused_simulator() -> Simulator:
    """A simulator that has run a program and then been ``reset()``.

    The program leaves every piece of run state behind: the clock moved,
    sequence numbers reserved, an edge run in place (a frame between two
    radios, the receiver's end of it right after the sender's), a live event
    and a tombstone queued, ``stop()`` requested.
    """
    sim = Simulator()
    channel = WirelessChannel(sim)
    sender, receiver = Radio(sim, 0, channel), Radio(sim, 1, channel)
    channel.register(sender, Position(0.0, 0.0))
    channel.register(receiver, Position(100.0, 0.0))

    def dirty():
        sim.cancel(sim.schedule(1.0, lambda: None))
        sim.schedule_reserved(sim.now + 2.0, sim.reserve_sequences(3), lambda: None)
        sim.stop()

    sim.schedule(0.5, sender.transmit, Packet(payload_size=10), 1e-3)
    sim.schedule(0.6, dirty)
    sim.run(until=10.0)
    assert sim.edges_in_place == 1 and sim.pending_events == 1
    sim.reset()
    return sim


#: The kernels the scheduler contract is held to (the ``make_sim`` fixture):
#: a new simulator, and one reused after ``reset()``, which must be
#: indistinguishable from a new one.
KERNELS = {"reference": Simulator, "reset": reused_simulator}


def wired_only(topology: Topology) -> Topology:
    """``topology`` with a plan putting every node on one shared bus and none
    on the radio plane."""
    return replace(topology, link_plan=LinkPlan(
        segments=(WiredSegmentSpec(nodes=tuple(topology.node_ids)),)))
