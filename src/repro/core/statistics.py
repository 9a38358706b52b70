"""Statistics utilities used by the experiment harness.

The paper derives its performance measures with the batch-means method: the
simulation output is split into batches of a fixed number of successfully
delivered packets, the first batch is discarded as the initial transient, and
95 % confidence intervals are computed from the remaining batches.  This module
provides that machinery plus Jain's fairness index and time-weighted averages
(used for the average congestion-window size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction ``cf`` in ``I_x(a, b) = x^a (1-x)^b cf / (a B(a, b))``.

    Modified Lentz evaluation; it converges in O(sqrt(max(a, b))) terms for
    ``x < (a + 1) / (a + b + 2)``, and ``I_x(a, b) = 1 - I_{1-x}(b, a)``
    covers the rest.
    """
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 100_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            if abs(c) < tiny:
                c = tiny
            result *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return result


def student_t_quantile(confidence: float, dof: float) -> float:
    """The ``t`` with ``P(|T| <= t) = confidence`` for ``dof`` degrees of freedom.

    ``P(|T| <= t)`` is the regularised incomplete beta function
    ``I_y(1/2, dof/2)`` at ``y = t² / (dof + t²)``.  It is concave in ``t``, so
    Newton's iteration started below the root rises to it without overshooting.
    Infinite for ``dof <= 0``: one sample says nothing about the spread.
    """
    if dof <= 0 or confidence >= 1.0:
        return math.inf
    if confidence <= 0.0:
        return 0.0
    a, b = 0.5, dof / 2.0
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    root_dof = math.sqrt(dof)
    direct_below = (a + 1.0) / (a + b + 2.0)
    # Newton's first step from t = 0, where the density is 1 / (sqrt(dof) B(a, b)).
    t = confidence * root_dof * math.exp(log_beta) / 2.0
    for _ in range(200):
        y = t * t / (dof + t * t)
        x = dof / (dof + t * t)         # 1 - y without the cancellation
        front = math.exp(a * math.log(y) + b * math.log(x) - log_beta)
        if y < direct_below:
            inside = front * _beta_continued_fraction(a, b, y) / a
        else:
            inside = 1.0 - front * _beta_continued_fraction(b, a, x) / b
        density = math.exp((b + 0.5) * math.log(x) - log_beta) / root_dof
        step = (confidence - inside) / (2.0 * density)
        t += step
        if abs(step) <= 1e-10 * t:      # quadratic: the step just taken was the error
            break
    return t


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean together with its symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float = 0.95

    @property
    def lower(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half-width relative to the mean (0 when the mean is 0)."""
        if self.mean == 0:
            return 0.0
        return abs(self.half_width / self.mean)

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {"mean": self.mean, "half_width": self.half_width,
                "confidence": self.confidence}

    @classmethod
    def from_dict(cls, data: dict) -> "ConfidenceInterval":
        """Rebuild from :meth:`to_dict` output."""
        return cls(mean=data["mean"], half_width=data["half_width"],
                   confidence=data.get("confidence", 0.95))


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased sample variance; 0.0 for fewer than two samples."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return sum((v - mu) ** 2 for v in values) / (len(values) - 1)


def confidence_interval(values: Sequence[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Return the mean and Student-t confidence interval of ``values``.

    Args:
        values: Sample observations (e.g. per-batch goodputs).
        confidence: Two-sided confidence level, strictly between 0 and 1.

    Returns:
        A :class:`ConfidenceInterval`; the half-width is 0 for fewer than two
        samples.
    """
    values = list(values)
    mu = mean(values)
    if len(values) < 2:
        return ConfidenceInterval(mean=mu, half_width=0.0, confidence=confidence)
    quantile = student_t_quantile(confidence, len(values) - 1)
    std_err = math.sqrt(sample_variance(values) / len(values))
    return ConfidenceInterval(mean=mu, half_width=quantile * std_err, confidence=confidence)


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index of per-flow goodputs.

    ``(sum x_i)^2 / (n * sum x_i^2)``; 1 means perfectly fair, ``1/n`` means a
    single flow captures everything.  Returns 1.0 for an empty sequence and
    for all-zero inputs (no flow is disadvantaged relative to another).
    """
    values = list(values)
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


class BatchMeans:
    """Batch-means estimator keyed on delivered-packet counts.

    The paper splits each run into batches of 10 000 successfully delivered
    packets, drops the first batch as the warm-up transient and reports the
    mean of a per-batch measure with a 95 % confidence interval.  This class
    records (time, cumulative_value) checkpoints every ``batch_size`` deliveries
    and turns them into per-batch rates.
    """

    def __init__(self, batch_size: int, discard_batches: int = 1) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size
        self.discard_batches = discard_batches
        self._checkpoints: List[tuple[float, float]] = []
        self._packets_in_batch = 0

    def record_delivery(self, now: float, cumulative_value: float, packets: int = 1) -> None:
        """Record ``packets`` deliveries with the running cumulative measure.

        Args:
            now: Current simulation time.
            cumulative_value: Monotone cumulative quantity (e.g. bytes received).
            packets: Number of deliveries represented by this call.
        """
        self._packets_in_batch += packets
        while self._packets_in_batch >= self.batch_size:
            self._packets_in_batch -= self.batch_size
            self._checkpoints.append((now, cumulative_value))

    @property
    def completed_batches(self) -> int:
        """Number of completed batches recorded so far."""
        return len(self._checkpoints)

    def batch_rates(self) -> List[float]:
        """Per-batch rates (delta value / delta time), transient removed."""
        rates: List[float] = []
        previous_time, previous_value = 0.0, 0.0
        for time_point, value in self._checkpoints:
            duration = time_point - previous_time
            if duration > 0:
                rates.append((value - previous_value) / duration)
            previous_time, previous_value = time_point, value
        return rates[self.discard_batches:]

    def rate_interval(self) -> ConfidenceInterval:
        """Mean per-batch rate with its 95 % confidence interval."""
        return confidence_interval(self.batch_rates())


@dataclass
class TimeWeightedAverage:
    """Time-weighted average of a piecewise-constant signal (e.g. cwnd)."""

    _last_time: Optional[float] = None
    _last_value: float = 0.0
    _weighted_sum: float = 0.0
    _total_time: float = 0.0
    samples: int = 0

    def record(self, now: float, value: float) -> None:
        """Record that the signal changed to ``value`` at time ``now``."""
        if self._last_time is not None and now > self._last_time:
            duration = now - self._last_time
            self._weighted_sum += self._last_value * duration
            self._total_time += duration
        self._last_time = now
        self._last_value = value
        self.samples += 1

    def finalize(self, now: float) -> None:
        """Extend the last recorded value up to time ``now``."""
        if self._last_time is not None and now > self._last_time:
            duration = now - self._last_time
            self._weighted_sum += self._last_value * duration
            self._total_time += duration
            self._last_time = now

    @property
    def average(self) -> float:
        """The time-weighted average observed so far (0 if nothing recorded)."""
        if self._total_time <= 0:
            return self._last_value if self._last_time is not None else 0.0
        return self._weighted_sum / self._total_time

