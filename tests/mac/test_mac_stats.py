"""Tests for the per-node MAC statistics counters."""

from __future__ import annotations

import pytest

from repro.mac.stats import MacStats


def mac_stats(**fields: int) -> MacStats:
    """A stand-alone record with the given fields set."""
    stats = MacStats()
    for field, value in fields.items():
        setattr(stats, field, value)
    return stats


class TestDropProbability:
    def test_zero_when_nothing_started(self):
        assert MacStats().drop_probability == 0.0

    def test_fraction_of_completed_transmissions(self):
        stats = mac_stats(data_tx_success=8, data_dropped_retry=2)
        assert stats.drop_probability == pytest.approx(0.2)

    def test_all_drops(self):
        stats = mac_stats(data_dropped_retry=5)
        assert stats.drop_probability == 1.0

    def test_successes_alone_give_zero(self):
        stats = mac_stats(data_tx_success=100)
        assert stats.drop_probability == 0.0


class TestAttemptDropProbability:
    def test_zero_without_attempts(self):
        assert MacStats().attempt_drop_probability == 0.0

    def test_counts_both_timeout_kinds(self):
        stats = mac_stats(data_tx_attempts=10, rts_timeouts=2, ack_timeouts=3)
        assert stats.attempt_drop_probability == pytest.approx(0.5)

    def test_capped_at_one(self):
        # RTS timeouts are not data attempts, so failures can exceed attempts;
        # the probability is clamped.
        stats = mac_stats(data_tx_attempts=1, rts_timeouts=7)
        assert stats.attempt_drop_probability == 1.0

    def test_no_failures_is_zero(self):
        stats = mac_stats(data_tx_attempts=50)
        assert stats.attempt_drop_probability == 0.0


class TestCounterDefaults:
    def test_all_counters_start_at_zero(self):
        stats = MacStats()
        assert stats.data_tx_attempts == 0
        assert stats.data_tx_success == 0
        assert stats.data_dropped_retry == 0
        assert stats.rts_tx == 0
        assert stats.cts_tx == 0
        assert stats.ack_tx == 0
        assert stats.rts_timeouts == 0
        assert stats.ack_timeouts == 0
        assert stats.broadcasts_sent == 0
        assert stats.frames_delivered_up == 0
        assert stats.duplicates_suppressed == 0

    def test_counters_are_independent_per_instance(self):
        a, b = mac_stats(rts_tx=3), MacStats()
        assert a.rts_tx == 3
        assert b.rts_tx == 0
