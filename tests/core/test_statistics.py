"""Tests for statistics utilities (batch means, CIs, Jain index)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.statistics import (
    BatchMeans,
    ConfidenceInterval,
    TimeWeightedAverage,
    confidence_interval,
    jain_fairness_index,
    mean,
    sample_variance,
    student_t_quantile,
)


class TestBasicStats:
    def test_mean_empty(self):
        assert mean([]) == 0.0

    def test_mean_values(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_variance_single_sample_is_zero(self):
        assert sample_variance([5.0]) == 0.0

    def test_variance_known_value(self):
        assert sample_variance([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(32.0 / 7.0)


class TestConfidenceInterval:
    def test_single_value_zero_width(self):
        ci = confidence_interval([10.0])
        assert ci.mean == 10.0
        assert ci.half_width == 0.0

    def test_identical_values_zero_width(self):
        ci = confidence_interval([3.0] * 10)
        assert ci.half_width == pytest.approx(0.0)

    def test_known_interval(self):
        # 10 samples of N-ish data; compare against a hand-computed t interval.
        values = [10.0, 12.0, 9.0, 11.0, 10.5, 9.5, 12.5, 10.0, 11.5, 9.0]
        ci = confidence_interval(values)
        assert ci.mean == pytest.approx(10.5)
        assert 0.5 < ci.half_width < 1.5

    def test_bounds_bracket_mean(self):
        ci = confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert ci.lower < ci.mean < ci.upper

    def test_relative_half_width(self):
        ci = ConfidenceInterval(mean=100.0, half_width=5.0)
        assert ci.relative_half_width == pytest.approx(0.05)

    def test_relative_half_width_zero_mean(self):
        ci = ConfidenceInterval(mean=0.0, half_width=1.0)
        assert ci.relative_half_width == 0.0

    def test_str_representation(self):
        text = str(ConfidenceInterval(mean=10.0, half_width=0.5))
        assert "10" in text and "±" in text


class TestStudentTQuantile:
    LEVELS = (0.80, 0.90, 0.95, 0.99)

    def test_matches_scipy(self):
        # scipy is the oracle here and nowhere in src/.
        t = pytest.importorskip("scipy.stats").t
        for confidence in self.LEVELS:
            for dof in range(1, 201):
                assert student_t_quantile(confidence, dof) == pytest.approx(
                    float(t.ppf(0.5 + confidence / 2.0, dof)), rel=1e-9), (confidence, dof)

    @pytest.mark.parametrize("confidence", LEVELS + (1e-6, 0.5, 0.999999))
    def test_closed_forms(self, confidence):
        # One degree of freedom is the Cauchy distribution, two has an
        # algebraic quantile: exact oracles that need no scipy.
        assert student_t_quantile(confidence, 1) == pytest.approx(
            math.tan(math.pi * confidence / 2.0), rel=1e-9)
        assert student_t_quantile(confidence, 2) == pytest.approx(
            confidence * math.sqrt(2.0 / (1.0 - confidence ** 2)), rel=1e-9)

    def test_approaches_the_normal_quantile(self):
        assert student_t_quantile(0.95, 10 ** 6) == pytest.approx(1.959964, rel=1e-5)

    @pytest.mark.parametrize("dof", [0, -1])
    def test_no_degrees_of_freedom_is_infinite(self, dof):
        assert math.isinf(student_t_quantile(0.95, dof))

    def test_degenerate_levels(self):
        assert student_t_quantile(0.0, 5) == 0.0
        assert math.isinf(student_t_quantile(1.0, 5))

    def test_interval_uses_the_level_it_was_asked_for(self):
        # Used to be the 95 % quantile whatever the level when scipy was absent.
        values = [10.0, 12.0, 9.0, 11.0, 10.5]
        at_95 = confidence_interval(values)
        assert at_95.half_width == pytest.approx(2.7764451052 * math.sqrt(1.25 / 5), rel=1e-9)
        for confidence in self.LEVELS:
            ci = confidence_interval(values, confidence=confidence)
            assert ci.confidence == confidence
            assert ci.half_width / at_95.half_width == pytest.approx(
                student_t_quantile(confidence, 4) / student_t_quantile(0.95, 4))

    @pytest.mark.parametrize("values", [[], [7.0]])
    def test_fewer_than_two_samples_have_zero_half_width(self, values):
        for confidence in self.LEVELS:
            assert confidence_interval(values, confidence=confidence).half_width == 0.0


class TestJainFairness:
    def test_perfect_fairness(self):
        assert jain_fairness_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_worst_case_single_flow_dominates(self):
        n = 10
        values = [1.0] + [0.0] * (n - 1)
        assert jain_fairness_index(values) == pytest.approx(1.0 / n)

    def test_empty_is_one(self):
        assert jain_fairness_index([]) == 1.0

    def test_all_zero_is_one(self):
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_paper_range(self):
        # Two equal flows and four starved ones: moderately unfair, similar to
        # the paper's NewReno grid results (Table 3: 0.32-0.52).
        index = jain_fairness_index([100.0, 100.0, 1.0, 1.0, 1.0, 1.0])
        assert 0.3 < index < 0.6

    @given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=20))
    def test_bounds_property(self, values):
        index = jain_fairness_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    @given(
        st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=20),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance_property(self, values, scale):
        original = jain_fairness_index(values)
        scaled = jain_fairness_index([v * scale for v in values])
        assert scaled == pytest.approx(original, rel=1e-6)


class TestBatchMeans:
    def test_requires_positive_batch_size(self):
        with pytest.raises(ValueError):
            BatchMeans(batch_size=0)

    def test_batches_complete_on_packet_counts(self):
        batches = BatchMeans(batch_size=10, discard_batches=0)
        cumulative = 0.0
        for i in range(1, 31):
            cumulative += 100.0
            batches.record_delivery(now=float(i), cumulative_value=cumulative)
        assert batches.completed_batches == 3

    def test_constant_rate_recovered(self):
        batches = BatchMeans(batch_size=5, discard_batches=1)
        for i in range(1, 26):
            batches.record_delivery(now=i * 0.1, cumulative_value=i * 200.0)
        rates = batches.batch_rates()
        assert len(rates) == 4  # 5 batches, first discarded
        for rate in rates:
            assert rate == pytest.approx(2000.0, rel=1e-6)

    def test_transient_discarded(self):
        batches = BatchMeans(batch_size=2, discard_batches=1)
        # First batch has a very different rate from the rest.
        deliveries = [(1.0, 10.0), (2.0, 20.0), (3.0, 1020.0), (4.0, 2020.0),
                      (5.0, 3020.0), (6.0, 4020.0)]
        for now, value in deliveries:
            batches.record_delivery(now, value)
        rates = batches.batch_rates()
        assert all(rate == pytest.approx(1000.0) for rate in rates)

    def test_rate_interval_returns_ci(self):
        batches = BatchMeans(batch_size=2, discard_batches=0)
        for i in range(1, 13):
            batches.record_delivery(now=float(i), cumulative_value=i * 50.0)
        interval = batches.rate_interval()
        # 50 units of cumulative value per unit of time.
        assert interval.mean == pytest.approx(50.0)

    def test_multi_packet_record(self):
        batches = BatchMeans(batch_size=10, discard_batches=0)
        batches.record_delivery(now=1.0, cumulative_value=100.0, packets=25)
        assert batches.completed_batches == 2


class TestTimeWeightedAverage:
    def test_no_samples_is_zero(self):
        assert TimeWeightedAverage().average == 0.0

    def test_constant_signal(self):
        avg = TimeWeightedAverage()
        avg.record(0.0, 4.0)
        avg.finalize(10.0)
        assert avg.average == pytest.approx(4.0)

    def test_step_signal(self):
        avg = TimeWeightedAverage()
        avg.record(0.0, 2.0)
        avg.record(5.0, 6.0)
        avg.finalize(10.0)
        assert avg.average == pytest.approx(4.0)

    def test_uneven_durations_weighting(self):
        avg = TimeWeightedAverage()
        avg.record(0.0, 1.0)
        avg.record(9.0, 11.0)
        avg.finalize(10.0)
        assert avg.average == pytest.approx((1.0 * 9 + 11.0 * 1) / 10)

    def test_single_sample_without_duration(self):
        avg = TimeWeightedAverage()
        avg.record(5.0, 7.0)
        assert avg.average == pytest.approx(7.0)

    @given(st.lists(st.tuples(st.floats(min_value=0.001, max_value=10.0),
                              st.floats(min_value=0.0, max_value=100.0)),
                    min_size=1, max_size=30))
    def test_average_bounded_by_extremes(self, steps):
        avg = TimeWeightedAverage()
        now = 0.0
        values = []
        for duration, value in steps:
            avg.record(now, value)
            values.append(value)
            now += duration
        avg.finalize(now)
        assert min(values) - 1e-9 <= avg.average <= max(values) + 1e-9

