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

The formulas behind the one-sample functions (:func:`isolated_shares`,
:func:`escapes`, :func:`window_estimates`, :func:`window_minima`,
:func:`upper_values`) read per-point answers at r and take a leading axis
of samples, which a simulation campaign fills with a block of replicates.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .samples import Sample, verify_net
from .serialize import Record
from .spaces import check_radius

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


def upper_values(raw):
    """The values of upper estimates at ``raw``, clipped to 1, elementwise."""
    return np.fmin(raw, 1.0)


def upper_estimate(raw: float, method: str, delta: float, radius: float | None = None,
                   m: int | None = None) -> Estimate:
    """A one-sided upper estimate at ``raw`` clipped to 1, vacuous when
    ``raw`` is 1 or more."""
    return Estimate(value=float(upper_values(raw)), method=method, side=UPPER, delta=delta,
                    radius=radius, m=m, vacuous=raw >= 1.0)


def check_sample(sample: Sample, r: float) -> None:
    check_radius(r)
    if sample.n < 1:
        raise ValueError("sample must be non-empty")


def isolated_shares(other_within: np.ndarray) -> np.ndarray:
    """The Good-Turing estimates from whether another point lies within r
    of each point, per sample of the leading axes."""
    return np.mean(~other_within, axis=-1)


def good_turing(sample: Sample, r: float) -> float:
    """Fraction of sample points farther than r from all other sample points."""
    check_sample(sample, r)
    if sample.n == 1:
        return 1.0
    return float(isolated_shares(sample.within(r)[1]))


def escapes(earlier_within: np.ndarray) -> np.ndarray:
    """The escape indicators from whether an earlier point lies within r of
    each point, per sample of the leading axes."""
    return (~earlier_within).astype(float)


def escape_indicators(sample: Sample, r: float) -> np.ndarray:
    """Indicator, per point in sample order, of escaping all earlier balls."""
    check_sample(sample, r)
    return escapes(sample.within(r)[0])


def martingale_estimate(sample: Sample, r: float, m: int) -> float:
    """Average escape indicator over the last m points in sample order."""
    if not 1 <= m <= sample.n:
        raise ValueError("m must lie in [1, n]")
    e = escape_indicators(sample, r)
    return float(e[sample.n - m:].mean())


def window_estimates(e: np.ndarray) -> np.ndarray:
    """The sequential estimates for m = 1..n (index m-1), the escape
    indicators ``e`` averaged over the last m points, per sample of the
    leading axes."""
    return np.cumsum(e[..., ::-1], axis=-1) / np.arange(1, e.shape[-1] + 1)


def all_martingale_estimates(sample: Sample, r: float) -> np.ndarray:
    """Vector of the sequential estimates for m = 1..n (index m-1)."""
    return window_estimates(escape_indicators(sample, r))


@functools.lru_cache(maxsize=32)
def _window_slacks(n: int, delta: float) -> np.ndarray:
    """The read-only slacks of :func:`sequential_bounds`, built once per
    (n, delta): a campaign asks for the same ones every replicate."""
    slack = np.sqrt(np.log(n / delta) / (2.0 * np.arange(1, n + 1)))
    slack.flags.writeable = False
    return slack


def window_minima(t: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slacks sqrt(ln(n/delta) / (2m)) of the sequential estimates ``t``
    for m = 1..n (index m-1), union-bounded over the n windows, and per
    sample of the leading axes the first index m-1 minimising estimate plus
    slack and that minimum, unclipped."""
    slack = _window_slacks(t.shape[-1], delta)
    values = t + slack
    return slack, np.argmin(values, axis=-1), values.min(axis=-1)


def sequential_bounds(sample: Sample, r: float, delta: float
                      ) -> tuple[np.ndarray, np.ndarray, Estimate]:
    """The sequential estimates and their slacks (:func:`window_minima`),
    and the minimum over m of estimate plus slack as an upper estimate."""
    check_delta(delta)
    t = all_martingale_estimates(sample, r)
    slack, best, raw = window_minima(t, delta)
    return t, slack, upper_estimate(float(raw), MARTINGALE_MIN, delta,
                                    radius=float(slack[best]), m=int(best) + 1)


def martingale_upper_bound(sample: Sample, r: float, delta: float) -> Estimate:
    """Upper confidence bound on the conditional missing mass, valid with
    probability at least 1 - delta: the last of :func:`sequential_bounds`."""
    return sequential_bounds(sample, r, delta)[2]


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
