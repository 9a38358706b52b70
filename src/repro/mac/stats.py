"""Per-node MAC statistics.

Figure 14 of the paper reports the overall link-layer packet dropping
probability (averaged over intermediate nodes); Figure 9 depends on the number
of frames dropped after exhausting the retry limits.  These counters feed both.

:class:`MacStats` is a slotted record registered once in the scenario's
:class:`~repro.metrics.registry.MetricsRegistry` under ``mac.node<N>``, so
its fields read as ``mac.node<N>.<field>``; only the owning MAC updates them.
"""

from __future__ import annotations

from repro.metrics import StatsRecord


class MacStats(StatsRecord):
    """Counters maintained by each 802.11 MAC instance (unit: frames)."""

    __slots__ = {
        "data_tx_attempts": "Unicast DATA transmission attempts.",
        "data_tx_success": "Unicast DATA frames acknowledged by the receiver.",
        "data_dropped_retry": "Frames dropped after exhausting a retry limit.",
        "rts_tx": "RTS frames transmitted.",
        "cts_tx": "CTS frames transmitted.",
        "ack_tx": "MAC ACK frames transmitted.",
        "rts_timeouts": "CTS timeouts after an RTS transmission.",
        "ack_timeouts": "ACK timeouts after a DATA transmission.",
        "broadcasts_sent": "Broadcast frames transmitted (no RTS/CTS/ACK).",
        "frames_delivered_up": "Frames handed up to the routing layer.",
        "duplicates_suppressed": "Duplicate receptions suppressed by the cache.",
    }

    @property
    def drop_probability(self) -> float:
        """Fraction of unicast data transmissions that ended in a retry drop."""
        started = self.data_tx_success + self.data_dropped_retry
        if started == 0:
            return 0.0
        return self.data_dropped_retry / started

    @property
    def attempt_drop_probability(self) -> float:
        """Fraction of individual transmission attempts that failed.

        This is the per-attempt failure probability (collisions / missing
        CTS or ACK responses over all attempts), the closest analogue to the
        "overall packet dropping probability at the link layer" in Fig. 14.
        """
        if self.data_tx_attempts == 0:
            return 0.0
        failures = self.rts_timeouts + self.ack_timeouts
        return min(1.0, failures / self.data_tx_attempts)
