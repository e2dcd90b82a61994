"""Empirical two-sided bounds on the W1 distance to the empirical measure.

Lower bound: the mass escaping every sample r-ball must travel at least r
under any transport plan, so r * Mhat(X, r) lower-bounds W1 at every radius;
callers maximize over a grid.

Upper bounds hold with probability 1 - delta in spaces of diameter at most
one, given an r-net of the sample of size m <= (n - 3)/2:

    W1 <= Mhat(X, r) + 3r + 2 sqrt(m/(n-m)) (1 + sqrt(ln(n/delta)))
    W1 <= 3r + 3 sqrt(m/(n-m)) (1 + sqrt(ln(2n/delta)))

The true diameter of the support is unknown, so the grid sweep normalizes
distances by the observed sample diameter times a margin and reports the
normalization constant; the margin makes underestimation unlikely but the
caveat stands.  Failure probability is Bonferroni-split across the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import check_delta, martingale_upper_bound
from .oracles import conditional_missing_masses
from .samples import (
    Sample,
    farthest_first_traversal,
    net_prefix,
    prefix_net_errors,
    verify_net,
)
from .serialize import Record
from .spaces import discrete

DIAMETER_MARGIN = 1.05
DIAMETER_ERROR = "upper bounds need diameter <= 1; rescale the sample"


@dataclass(frozen=True)
class WassersteinReport(Record):
    r: float
    m: int
    delta: float
    lower: float
    upper_a: float | None
    upper_b: float | None
    net_indices: tuple[int, ...]
    scale: float = 1.0
    mhat: float | None = None

    def __post_init__(self):
        if not (self.lower >= 0 and self.r >= 0):
            raise ValueError("report fields must be non-negative")


def w1_lower_bound(mhat: float, r: float) -> float:
    """r * Mhat, valid for every r with no failure probability."""
    if not 0.0 <= mhat <= 1.0:
        raise ValueError("mhat must lie in [0, 1]")
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    return r * mhat


def w1_upper_bounds(sample: Sample, r: float, net, delta: float,
                    mhat_upper: float | None = None) -> WassersteinReport:
    """Evaluate both net-based upper bounds on a diameter-normalized sample.

    ``mhat_upper`` must be an upper estimate of the conditional missing mass
    at radius r (oracle value or a high-probability bound); without it only
    the net-only form is reported.  Bounds are clipped to the diameter.
    """
    check_delta(delta)
    if sample.diameter() > 1.0:
        raise ValueError(DIAMETER_ERROR)
    verify_net(sample, net, r)
    n = sample.n
    m = len(net)
    if m > _max_net_size(n):
        raise ValueError(f"net size {m} exceeds (n - 3)/2 = {_max_net_size(n):.1f}")
    upper_a, upper_b = _net_upper_bounds(n, m, r, delta, mhat_upper)
    lower = w1_lower_bound(mhat_upper, r) if mhat_upper is not None else 0.0
    return WassersteinReport(r=r, m=m, delta=delta, lower=lower,
                             upper_a=upper_a, upper_b=upper_b,
                             net_indices=tuple(int(i) for i in net),
                             mhat=mhat_upper)


def _max_net_size(n: int) -> float:
    """The largest net size, (n - 3)/2, for which the upper bounds hold."""
    return (n - 3) / 2


def _net_upper_bounds(n: int, m: int, r: float, delta: float,
                      mhat_upper: float | None) -> tuple[float | None, float]:
    """(upper_a, upper_b) for a verified r-net of size m <= (n - 3)/2 of a
    sample of diameter at most one; upper_a is None without ``mhat_upper``."""
    ratio = math.sqrt(m / (n - m))
    upper_b = min(1.0, 3.0 * r + 3.0 * ratio * (1.0 + math.sqrt(math.log(2.0 * n / delta))))
    upper_a = None
    if mhat_upper is not None:
        upper_a = min(1.0, mhat_upper + 3.0 * r
                      + 2.0 * ratio * (1.0 + math.sqrt(math.log(n / delta))))
    return upper_a, upper_b


def default_r_grid(sample: Sample, size: int = 20) -> list[float]:
    """Logarithmic grid between the 1st percentile and the median of the
    positive pairwise distances."""
    count = sample.positive_pair_count()
    if count == 0:
        raise ValueError("sample has no positive pairwise distance; supply a grid")
    lo, hi = grid_endpoints(count, sample.pair_order_statistics)
    if lo <= 0 or hi <= lo:
        raise ValueError("degenerate pairwise distances; supply a grid")
    return list(np.geomspace(lo, hi, size))


def grid_endpoints(count: int, select) -> tuple[float, float]:
    """``np.percentile(values, 1)`` and ``np.median(values)`` of ``count``
    values, bit for bit, from ``select(ranks)``, which returns the values at
    the given ranks (0 the smallest), one per rank.

    The percentile follows numpy's linear rule: virtual index
    (count - 1) * 0.01, interpolated between its floor's value a and the
    next one b as a + (b - a) * gamma, or b - (b - a) * (1 - gamma) when the
    fraction gamma is at least one half.  The median is numpy's mean of the
    one or two middle values."""
    virtual = (count - 1) * np.true_divide(1, 100)
    below = int(np.floor(virtual))
    gamma = virtual - below
    middle = [(count - 1) // 2, count // 2]
    a, b, *mid = select([below, min(below + 1, count - 1)] + middle)
    diff = b - a
    lo = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
    hi = np.median(mid[:1] if count % 2 else mid)
    return float(lo), float(hi)


def w1_report(sample: Sample, r_grid=None, delta: float = 0.1, mu_spec=None,
              margin: float = DIAMETER_MARGIN, seed=0) -> list[WassersteinReport]:
    """Grid sweep combining net construction, both upper bounds and the
    lower bound, with delta Bonferroni-corrected across the grid.

    When ``mu_spec`` is supplied the missing-mass plug-in comes from the
    oracle (value plus its Monte Carlo half-width); otherwise the sequential
    upper confidence bound stands in, which keeps the upper bounds valid but
    makes the reported lower bound a plug-in estimate rather than a
    certificate.  Radii whose net violates m <= (n - 3)/2 report no upper
    bounds.  All fields are in the sample's original distance units; the
    normalization constant applied for the diameter-1 hypothesis is echoed
    as ``scale``.  That hypothesis is checked once, from the sample's cached
    diameter, and every net is verified, in one pass, before any bound is
    computed.

    ``seed`` is the sweep's root seed.  The Monte Carlo oracle draws its
    test points from the child stream ``[seed, 1]``, so they stay
    independent of a sample drawn from ``seed`` itself.
    """
    check_delta(delta)
    if r_grid is None:
        r_grid = default_r_grid(sample)
    r_grid = [float(r) for r in r_grid]
    if not r_grid:
        raise ValueError("radius grid must be non-empty")
    if any(not r > 0 for r in r_grid):
        raise ValueError("grid radii must be positive")

    diameter = sample.diameter()
    if sample.space == discrete():
        scale = 1.0  # the discrete metric has true diameter exactly 1
    else:
        scale = diameter * margin if diameter > 0 else 1.0
    if diameter / scale > 1.0:
        raise ValueError(DIAMETER_ERROR)
    normalized = sample.with_distances_scaled(1.0 / scale) if scale != 1.0 else sample

    delta_r = delta / len(r_grid)
    n_max = _max_net_size(sample.n)
    radii = sorted(r_grid)
    oracle = [None] * len(radii)
    if mu_spec is not None:
        oracle_seed = None if seed is None else [seed, 1]
        oracle = conditional_missing_masses(mu_spec, sample, radii, seed=oracle_seed)
    # One traversal down to the smallest radius serves every radius, and
    # one pass verifies every net small enough for the upper bounds.
    order, covering = farthest_first_traversal(normalized, radii[0] / scale)
    nets = [net_prefix(order, covering, r / scale) for r in radii]
    checks = [(len(net), r / scale) for net, r in zip(nets, radii) if len(net) <= n_max]
    for error in prefix_net_errors(normalized, order, checks):
        if error is not None:
            raise error
    reports = []
    for r, est, net in zip(radii, oracle, nets):
        m = len(net)
        if est is not None:
            mhat = est.value
            mhat_hi = min(1.0, est.value + est.half_width)
            mhat_lo = max(0.0, est.value - est.half_width)
        else:
            mhat = martingale_upper_bound(sample, r, delta_r).value
            mhat_hi = mhat
            mhat_lo = mhat
        lower = w1_lower_bound(mhat_lo, r)
        upper_a = upper_b = None
        if m <= n_max:
            upper_a, upper_b = _net_upper_bounds(sample.n, m, r / scale, delta_r, mhat_hi)
            upper_a *= scale
            upper_b *= scale
        reports.append(WassersteinReport(
            r=r, m=m, delta=delta_r, lower=lower, upper_a=upper_a,
            upper_b=upper_b, net_indices=tuple(int(i) for i in net),
            scale=scale, mhat=mhat))
    return reports
