"""Tests for the execution plane's work queue (lease/retry/backoff)."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.exec.workqueue import (
    WorkItem,
    WorkItemState,
    WorkQueue,
)
from repro.experiments.study import SweepSpec


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(
        name="tiny",
        topology="chain",
        axes={"variant": ["vegas", "newreno"], "hops": [2, 3]},
        base=ScenarioConfig(packet_target=20, max_sim_time=25.0),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def two_items() -> WorkQueue:
    return WorkQueue([
        WorkItem(key="k0", point_index=0, replication=0, seed=1, values={}),
        WorkItem(key="k1", point_index=1, replication=0, seed=1, values={}),
    ])


class TestFromSpec:
    def test_explodes_points_times_replications(self):
        spec = tiny_spec(replications=3)
        queue = WorkQueue.from_spec(spec)
        assert queue.total == 4 * 3
        assert queue.pending_count == queue.total

    def test_point_major_replication_minor_order(self):
        queue = WorkQueue.from_spec(tiny_spec(replications=2))
        ids = [item.item_id for item in queue.items]
        assert ids[:4] == ["0:0", "0:1", "1:0", "1:1"]

    def test_items_carry_spec_fingerprints_and_seeds(self):
        spec = tiny_spec(replications=2, base_seed=7)
        queue = WorkQueue.from_spec(spec)
        first = queue.items[0]
        assert first.seed == 7
        assert queue.items[1].seed == 8
        assert first.key == spec.fingerprint(first.values, first.seed)

    def test_duplicate_axis_values_share_key_but_stay_distinct(self):
        spec = tiny_spec(axes={"hops": [2, 2]})
        queue = WorkQueue.from_spec(spec)
        assert queue.total == 2
        assert queue.items[0].key == queue.items[1].key
        assert queue.items[0].item_id != queue.items[1].item_id

    def test_duplicate_item_ids_rejected(self):
        item = WorkItem(key="k", point_index=0, replication=0, seed=1, values={})
        with pytest.raises(ConfigurationError):
            WorkQueue([item, item])


class TestLifecycle:
    def test_lease_complete(self):
        queue = two_items()
        item = queue.lease("w0", now=10.0)
        assert item is queue.items[0]
        assert item.state is WorkItemState.LEASED
        assert item.worker == "w0"
        assert item.attempts == 1
        assert item.lease_deadline == pytest.approx(10.0 + queue.lease_timeout)
        queue.complete(item)
        assert item.state is WorkItemState.DONE
        assert queue.done_count == 1 and queue.pending_count == 1

    def test_lease_order_is_queue_order(self):
        queue = two_items()
        assert queue.lease("w").item_id == "0:0"
        assert queue.lease("w").item_id == "1:0"
        assert queue.lease("w") is None

    def test_fail_requeues_with_exponential_backoff(self):
        queue = WorkQueue(two_items().items, backoff_base=1.0, max_retries=3)
        item = queue.lease("w", now=0.0)
        assert queue.fail(item, "boom", now=100.0) is WorkItemState.PENDING
        assert item.not_before == pytest.approx(101.0)  # 1.0 * 2**0
        assert queue.retried == 1
        # in backoff: not leasable yet, the other item is
        assert queue.lease("w", now=100.0) is queue.items[1]
        assert queue.lease("w", now=100.5) is None
        # after backoff: second attempt doubles the wait
        again = queue.lease("w", now=101.0)
        assert again is item and item.attempts == 2
        queue.fail(item, "boom", now=200.0)
        assert item.not_before == pytest.approx(202.0)  # 1.0 * 2**1

    def test_retry_budget_exhaustion_turns_failed(self):
        queue = WorkQueue(two_items().items, max_retries=1, backoff_base=0.0)
        item = queue.lease("w")
        assert queue.fail(item, "first") is WorkItemState.PENDING
        item = queue.lease("w")
        assert queue.fail(item, "second") is WorkItemState.FAILED
        assert item.error == "second"
        assert queue.failed_items() == [item]
        # terminally failed items are never handed out again
        assert queue.lease("w").item_id == "1:0"
        assert queue.lease("w") is None

    def test_zero_retries_fails_on_first_error(self):
        queue = WorkQueue(two_items().items, max_retries=0)
        item = queue.lease("w")
        assert queue.fail(item, "boom") is WorkItemState.FAILED

    def test_terminal_fail_skips_remaining_retry_budget(self):
        # non-transient errors (bad sweep point) must not burn retries
        queue = WorkQueue(two_items().items, max_retries=5)
        item = queue.lease("w")
        assert queue.fail(item, "bad config", terminal=True) \
            is WorkItemState.FAILED
        assert queue.retried == 0
        assert queue.failed_items() == [item]

    def test_retried_item_keeps_queue_position(self):
        # a retried early item is re-leased before later never-run items
        queue = WorkQueue(two_items().items, backoff_base=0.0, max_retries=2)
        first = queue.lease("w")
        assert first is queue.items[0]
        queue.fail(first, "boom")
        assert queue.lease("w") is queue.items[0]

    def test_expire_leases_requeues_crashed_workers(self):
        queue = WorkQueue(two_items().items, lease_timeout=50.0,
                          backoff_base=0.0)
        item = queue.lease("doomed", now=0.0)
        assert queue.expire_leases(now=49.0) == []
        expired = queue.expire_leases(now=50.0)
        assert expired == [item]
        assert item.state is WorkItemState.PENDING
        assert "doomed" in (item.error or "")
        assert queue.retried == 1

    def test_mark_done_resumes_without_execution(self):
        queue = two_items()
        queue.mark_done(queue.items[0])
        assert queue.items[0].state is WorkItemState.DONE
        assert queue.items[0].attempts == 0
        # and only on PENDING items
        with pytest.raises(ConfigurationError):
            queue.mark_done(queue.items[0])

    def test_invalid_transitions_rejected(self):
        queue = two_items()
        with pytest.raises(ConfigurationError):
            queue.complete(queue.items[0])  # never leased
        with pytest.raises(ConfigurationError):
            queue.fail(queue.items[0], "boom")


class TestIntrospection:
    def test_counts_histogram(self):
        queue = WorkQueue(two_items().items, max_retries=0)
        item = queue.lease("w")
        queue.fail(item, "boom")
        queue.complete(queue.lease("w"))
        assert queue.counts() == {
            "pending": 0, "leased": 0, "done": 1, "failed": 1,
            "retried": 0, "total": 2,
        }
        assert queue.finished

    def test_seconds_until_ready(self):
        queue = WorkQueue(two_items().items, backoff_base=4.0)
        assert queue.seconds_until_ready(now=0.0) == 0.0
        queue.fail(queue.lease("w", now=0.0), "boom", now=0.0)
        queue.complete(queue.lease("w", now=0.0))
        assert queue.seconds_until_ready(now=1.0) == pytest.approx(3.0)
        assert queue.seconds_until_ready(now=10.0) == 0.0
        queue.complete(queue.lease("w", now=10.0))
        assert queue.seconds_until_ready(now=10.0) == math.inf

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkQueue([], lease_timeout=0.0)
        with pytest.raises(ConfigurationError):
            WorkQueue([], max_retries=-1)
