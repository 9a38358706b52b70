"""TCP Vegas congestion control.

Vegas (Brakmo & Peterson, 1995) anticipates congestion instead of reacting to
loss.  Once per round-trip time the sender compares the throughput it *expects*
(window / baseRTT) with the throughput it *achieves* (window / RTT); the
difference, expressed in packets,

    diff = cwnd * (RTT - baseRTT) / RTT,

is held between the thresholds α and β by adding or removing one segment per
RTT.  The paper sets α = β = 2 (and γ = α for leaving slow start), which it
shows is the best choice for multihop 802.11 chains — the resulting window of
roughly 3–5 segments sits near the known optimum of h/4 packets in flight and
thereby avoids most hidden-terminal losses.

Also implemented, following Brakmo's design:

* the conservative slow start that doubles the window only every other RTT and
  exits as soon as ``diff > γ``;
* the fine-grained retransmission check: a duplicate ACK triggers an immediate
  retransmission when the oldest outstanding segment is older than the
  fine-grained timeout, without waiting for the third duplicate;
* the same check on the first new ACKs after a retransmission, to recover from
  multiple losses in one window;
* the gentler window reductions (3/4 on a fast retransmit instead of 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.packet import Packet
from repro.transport.tcp_base import TcpSender


@dataclass(frozen=True)
class VegasParameters:
    """Vegas-specific thresholds (in packets).

    Attributes:
        alpha: Lower threshold on ``diff``; below it the window grows.
        beta: Upper threshold on ``diff``; above it the window shrinks.
            The paper sets β = α, which improves fairness.
        gamma: Threshold on ``diff`` for leaving slow start.
    """

    alpha: float = 2.0
    beta: float = 2.0
    gamma: float = 2.0


class VegasSender(TcpSender):
    """TCP Vegas sender.

    Args:
        parameters: Vegas α/β/γ thresholds; the paper's default is
            α = β = γ = 2.
        **kwargs: Forwarded to :class:`repro.transport.tcp_base.TcpSender`.
    """

    def __init__(self, *args, parameters: Optional[VegasParameters] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.parameters = parameters or VegasParameters()
        self.base_rtt: Optional[float] = None
        self._epoch_end_seq = 0
        self._epoch_rtt_sum = 0.0
        self._epoch_rtt_count = 0
        self._slow_start_parity = False
        self._in_slow_start = True
        self._recovery_ack_checks = 0

    # ------------------------------------------------------------------
    # RTT bookkeeping
    # ------------------------------------------------------------------
    def _record_fine_rtt(self, packet: Packet) -> None:
        tcp = packet.require_tcp()
        if tcp.echo_timestamp <= 0:
            return
        sample = self.sim.now - tcp.echo_timestamp
        if sample <= 0:
            return
        if self.base_rtt is None or sample < self.base_rtt:
            self.base_rtt = sample
        self._epoch_rtt_sum += sample
        self._epoch_rtt_count += 1

    def _current_rtt(self) -> Optional[float]:
        if self._epoch_rtt_count > 0:
            return self._epoch_rtt_sum / self._epoch_rtt_count
        return self.rtt.last_rtt

    def compute_diff(self) -> Optional[float]:
        """The Vegas ``diff`` in packets, or None before any RTT measurement."""
        rtt = self._current_rtt()
        if rtt is None or rtt <= 0 or self.base_rtt is None:
            return None
        return self.cwnd * (rtt - self.base_rtt) / rtt

    # ------------------------------------------------------------------
    # Congestion-control hooks
    # ------------------------------------------------------------------
    def on_new_ack(self, newly_acked: int, packet: Packet) -> None:
        """Per-ACK bookkeeping plus the once-per-RTT Vegas window update."""
        self._record_fine_rtt(packet)

        # After a Vegas fast retransmission, the first two new ACKs also check
        # whether the (new) oldest outstanding segment has already expired.
        if self._recovery_ack_checks > 0:
            self._recovery_ack_checks -= 1
            self._maybe_expired_retransmit()

        if self.snd_una <= self._epoch_end_seq:
            return  # still within the current RTT epoch
        self._run_rtt_epoch_update()

    def _run_rtt_epoch_update(self) -> None:
        diff = self.compute_diff()
        params = self.parameters
        if diff is not None:
            if self._in_slow_start:
                if diff > params.gamma:
                    # Incipient congestion during slow start: switch to
                    # congestion avoidance with a reduced window.
                    self._in_slow_start = False
                    self.set_cwnd(max(self.cwnd * 3.0 / 4.0, 2.0))
                else:
                    # Double only every other RTT.
                    self._slow_start_parity = not self._slow_start_parity
                    if self._slow_start_parity:
                        self.set_cwnd(self.cwnd * 2.0)
            else:
                if diff < params.alpha:
                    self.set_cwnd(self.cwnd + 1.0)
                elif diff > params.beta:
                    self.set_cwnd(self.cwnd - 1.0)
                # else: leave the window unchanged (α ≤ diff ≤ β).
        elif self._in_slow_start:
            self._slow_start_parity = not self._slow_start_parity
            if self._slow_start_parity:
                self.set_cwnd(self.cwnd * 2.0)

        # Start the next RTT epoch.
        self._epoch_end_seq = self.snd_nxt
        self._epoch_rtt_sum = 0.0
        self._epoch_rtt_count = 0

    def on_dup_ack(self, packet: Packet) -> None:
        """Vegas fine-grained retransmission check plus the 3-dupack fallback."""
        self._record_fine_rtt(packet)
        if self._maybe_expired_retransmit():
            return
        if self.dupacks >= self.config.dupack_threshold:
            self._fast_retransmit()

    def _maybe_expired_retransmit(self) -> bool:
        """Retransmit ``snd_una`` if it exceeded the fine-grained timeout."""
        if self.snd_una >= self.snd_nxt:
            return False
        age = self.segment_age(self.snd_una)
        if age is None:
            return False
        if age > self._fine_grained_timeout():
            self._fast_retransmit()
            return True
        return False

    def _fine_grained_timeout(self) -> float:
        if self.rtt.srtt is not None:
            return self.rtt.srtt + 4.0 * self.rtt.rttvar
        if self.base_rtt is not None:
            return 2.0 * self.base_rtt
        return self.rtt.timeout()

    def _fast_retransmit(self) -> None:
        self._in_slow_start = False
        self.set_cwnd(max(self.cwnd * 3.0 / 4.0, 2.0))
        self._recovery_ack_checks = 2
        self.dupacks = 0
        self.retransmit(self.snd_una)

    def on_timeout(self) -> None:
        """A coarse timeout resets Vegas to a tiny window."""
        self.ssthresh = 2.0
        self._in_slow_start = False
        self._recovery_ack_checks = 0
        self.dupacks = 0
        self.set_cwnd(2.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_slow_start(self) -> bool:
        """True while the sender is still in Vegas' modified slow start."""
        return self._in_slow_start
