"""Sample-only estimators of the conditional missing mass.

Two families are implemented.  The extended Good-Turing estimator counts the
fraction of sample points farther than r from every other sample point; in
the discrete metric this is the classical fraction of species seen exactly
once.  The sequential estimators average, over the last m points in sample
order, the indicator that a point escapes the balls of all strictly earlier
points; their one-sided deviations above the conditional missing mass have
sub-Gaussian tails, which makes them suitable for union bounds.

Boundary conventions, applied uniformly: balls are closed (a point at
distance exactly r does not escape), separation is strict (d > r).  The
escape indicator of the first point is 1, the empty intersection of ball
complements being the whole space.

All upper confidence constructions go through :func:`upper_estimate`:
clipped to [0, 1], vacuous when the pre-clip value is 1 or more.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .samples import Sample, verify_net
from .serialize import Record

GOOD_TURING = "good_turing"
MARTINGALE = "martingale"
MARTINGALE_MIN = "martingale_min"
NET_BOUND = "net_bound"

TWO_SIDED = "two_sided"
UPPER = "upper"
LOWER = "lower"


def check_delta(delta: float) -> None:
    """Reject a failure probability outside (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class Estimate(Record):
    """A point estimate with an optional confidence radius.

    ``radius`` is a two-sided half-width for ``side == "two_sided"`` and a
    one-sided slack otherwise.  ``delta`` is the failure probability of the
    confidence statement.
    """
    value: float
    method: str
    side: str = TWO_SIDED
    delta: float | None = None
    radius: float | None = None
    m: int | None = None
    vacuous: bool = False

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("estimate value must lie in [0, 1]")
        if self.delta is not None:
            check_delta(self.delta)
        if self.radius is not None and not self.radius >= 0.0:
            raise ValueError("radius must be non-negative")


def upper_estimate(raw: float, method: str, delta: float, radius: float | None = None,
                   m: int | None = None) -> Estimate:
    """A one-sided upper estimate at ``raw`` clipped to 1, vacuous when
    ``raw`` is 1 or more."""
    return Estimate(value=min(1.0, raw), method=method, side=UPPER, delta=delta,
                    radius=radius, m=m, vacuous=raw >= 1.0)


def _check_sample(sample: Sample, r: float) -> None:
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    if sample.n < 1:
        raise ValueError("sample must be non-empty")


def good_turing(sample: Sample, r: float) -> float:
    """Fraction of sample points farther than r from all other sample points."""
    _check_sample(sample, r)
    if sample.n == 1:
        return 1.0
    return float(np.mean(sample.nearest_distances() > r))


def escape_indicators(sample: Sample, r: float) -> np.ndarray:
    """Indicator, per point in sample order, of escaping all earlier balls."""
    _check_sample(sample, r)
    return (sample.earlier_distances() > r).astype(float)


def martingale_estimate(sample: Sample, r: float, m: int) -> float:
    """Average escape indicator over the last m points in sample order."""
    if not 1 <= m <= sample.n:
        raise ValueError("m must lie in [1, n]")
    e = escape_indicators(sample, r)
    return float(e[sample.n - m:].mean())


def all_martingale_estimates(sample: Sample, r: float) -> np.ndarray:
    """Vector of the sequential estimates for m = 1..n (index m-1)."""
    e = escape_indicators(sample, r)
    m = np.arange(1, sample.n + 1)
    return np.cumsum(e[::-1]) / m


def sequential_slacks(n: int, delta: float) -> np.ndarray:
    """Sub-Gaussian slacks sqrt(ln(n/delta) / (2m)) of the sequential
    estimates for m = 1..n (index m-1), union-bounded over the n windows."""
    check_delta(delta)
    return np.sqrt(np.log(n / delta) / (2.0 * np.arange(1, n + 1)))


def martingale_upper_bound(sample: Sample, r: float, delta: float) -> Estimate:
    """Upper confidence bound on the conditional missing mass, valid with
    probability at least 1 - delta, obtained by minimizing the sequential
    estimate plus its sub-Gaussian slack over the window length m."""
    check_delta(delta)
    t = all_martingale_estimates(sample, r)
    slack = sequential_slacks(sample.n, delta)
    values = t + slack
    best = int(np.argmin(values))
    return upper_estimate(float(values[best]), MARTINGALE_MIN, delta,
                          radius=float(slack[best]), m=best + 1)


def good_turing_interval(sample: Sample, r: float, delta: float) -> Estimate:
    """Two-sided interval around the Good-Turing estimate from its variance
    bound via Chebyshev; radius 1/n + sqrt(3/(n*delta))."""
    check_delta(delta)
    n = sample.n
    g = good_turing(sample, r)
    radius = 1.0 / n + math.sqrt(3.0 / (n * delta))
    return Estimate(
        value=g,
        method=GOOD_TURING,
        side=TWO_SIDED,
        delta=delta,
        radius=radius,
        vacuous=radius >= 1.0,
    )


def net_missing_mass_bound(sample: Sample, r: float, net, delta: float) -> Estimate:
    """Upper bound m/n + sqrt(m ln(n/delta) / n) from a verified r-net of
    size m, valid with probability at least 1 - delta."""
    check_delta(delta)
    verify_net(sample, net, r)
    n = sample.n
    m = len(net)
    return upper_estimate(m / n + math.sqrt(m * math.log(n / delta) / n), NET_BOUND,
                          delta, m=m)


def subsample_supremum_slack(n: int, m: int, delta: float) -> float:
    """Uniform slack sqrt(min(n-m, m) ln(n/delta) / m) covering the
    estimation gap over all size-m sub-samples simultaneously."""
    if not 1 <= m <= n:
        raise ValueError("m must lie in [1, n]")
    check_delta(delta)
    return math.sqrt(min(n - m, m) * math.log(n / delta) / m)
