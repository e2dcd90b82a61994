"""Ground-truth computation of the mass quantities used for validation.

The conditional missing mass of a sample is the probability, under the
generating distribution, of landing farther than r from every sample point.
It is an oracle quantity (it needs the distribution), so these routines are
what the estimators are judged against.

Three evaluation strategies, picked automatically:

* finite-support distributions: exact summation over atoms, using the
  sampled atom indices when the sample carries them (fast path) or explicit
  cross distances otherwise;
* scalar distributions with a computable CDF (uniform interval, exponential
  step-function embedding): metric balls around sample points are coordinate
  intervals, so masses reduce to exact sweeps over merged intervals;
* everything else: Monte Carlo over fresh test points with a Hoeffding
  confidence half-width sqrt(ln(2/alpha) / (2N)).

The leave-one-out average H admits one shared decomposition used by both
exact branches and Monte Carlo: a point covered by no sample ball lies in
every leave-one-out escape region, a point covered by exactly one ball lies
in precisely that one, and a point covered twice or more lies in none.
Hence H = mu(cover = 0) + mu(cover = 1)/n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    PointMassSpec,
    UniformIntervalSpec,
    has_scalar_cdf,
    is_finite_support,
    rng_from_seed,
)
from .samples import Sample
from .serialize import Record
from .spaces import euclidean

ANALYTIC = "analytic"
MONTE_CARLO = "monte_carlo"

_MC_CHUNK = 8192


@dataclass(frozen=True)
class OracleEstimate(Record):
    value: float
    half_width: float
    method: str
    confidence: float
    n_test: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.method == ANALYTIC and self.half_width != 0.0:
            raise ValueError("analytic oracles carry no Monte Carlo width")


def _analytic(value: float) -> OracleEstimate:
    return OracleEstimate(float(value), 0.0, ANALYTIC, 1.0)


def _hoeffding_halfwidth(n: int, alpha: float) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def _seed_field(seed) -> int | None:
    return int(seed) if isinstance(seed, (int, np.integer)) else None


# -- coverage decompositions -------------------------------------------------

def _finite_coverage(spec, sample: Sample, r: float) -> tuple[float, float]:
    """(mass covered by no sample ball, mass covered by exactly one)."""
    weights = spec.atom_weights()
    if sample.atom_indices is not None:
        dist = spec.atom_distance_matrix()[:, sample.atom_indices]
    else:
        dist = spec.space().cross_distances(spec.atom_points(), sample.points)
    counts = (dist <= r).sum(axis=1)
    return float(weights[counts == 0].sum()), float(weights[counts == 1].sum())


def _interval_coverage(spec, sample: Sample, r: float) -> tuple[float, float]:
    """Coverage masses for scalar distributions: balls are intervals.

    One sweep over the 2n sorted endpoints, starts before ends at a tie so
    touching closed intervals leave no gap.  The masses are summed
    sequentially in sweep order (np.cumsum, not the pairwise np.sum), which
    keeps them bit-identical to an endpoint-by-endpoint loop.
    """
    xs = spec.coord_values(sample)
    rho = spec.coord_halfwidth(r)
    pos = np.concatenate([xs - rho, xs + rho])
    delta = np.concatenate([np.ones(len(xs), dtype=np.int64),
                            -np.ones(len(xs), dtype=np.int64)])
    order = np.lexsort((-delta, pos))
    pos = pos[order]
    cdf = spec.cdf(pos)
    # Balls covering the gap (pos[k-1], pos[k]), for k >= 1.
    count = np.cumsum(delta[order])[:-1]
    mass = cdf[1:] - cdf[:-1]
    gap = pos[1:] > pos[:-1]
    m0 = np.cumsum(np.concatenate([[0.0, cdf[0]], mass[gap & (count == 0)],
                                   [1.0 - cdf[-1]]]))[-1]
    m1 = np.cumsum(np.concatenate([[0.0], mass[gap & (count == 1)]]))[-1]
    return float(m0), float(m1)


def has_exact_oracle(spec) -> bool:
    """Whether the coverage masses of spec are computed exactly."""
    return is_finite_support(spec) or has_scalar_cdf(spec)


def _exact_coverage(spec, sample: Sample, r: float) -> tuple[float, float]:
    if is_finite_support(spec):
        return _finite_coverage(spec, sample, r)
    return _interval_coverage(spec, sample, r)


def _mc_nearest_two(spec, sample: Sample, n_test: int, alpha: float,
                    seed) -> tuple[np.ndarray, np.ndarray]:
    """Distances from each of n_test fresh draws to its nearest and its
    second-nearest sample point (inf for a one-point sample), chunked.

    Under the closed-ball convention a draw is covered by no sample ball
    iff d1 > r, and by exactly one iff d1 <= r < d2, at every radius r.
    """
    if n_test < 1:
        raise ValueError("n_test must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rng = rng_from_seed(seed)
    space = sample.space
    k = min(2, sample.n)
    nearest = np.full((n_test, 2), np.inf)
    for start in range(0, n_test, _MC_CHUNK):
        take = min(_MC_CHUNK, n_test - start)
        d = space.cross_distances(spec.sample(take, rng), sample.points)
        if k == 2:
            d.partition(1, axis=1)  # in place: no second chunk-sized array
        nearest[start:start + take, :k] = d[:, :k]
    return nearest[:, 0], nearest[:, 1]


def _monte_carlo(value: float, n_test: int, alpha: float, seed) -> OracleEstimate:
    return OracleEstimate(float(value), _hoeffding_halfwidth(n_test, alpha),
                          MONTE_CARLO, 1.0 - alpha, n_test=n_test,
                          seed=_seed_field(seed))


# -- oracle operations --------------------------------------------------------

def conditional_missing_masses(spec, sample: Sample, radii,
                               n_test: int = 100_000, alpha: float = 0.01,
                               seed=0) -> list[OracleEstimate]:
    """:func:`conditional_missing_mass` at each radius.  The Monte Carlo
    branch draws its n_test points once and scores every radius on them,
    which gives each radius exactly the estimate of a one-radius call with
    the same seed."""
    if any(not r >= 0 for r in radii):
        raise ValueError("radius must be non-negative")
    if sample.n < 1:
        raise ValueError("sample must be non-empty")
    if has_exact_oracle(spec):
        return [_analytic(_exact_coverage(spec, sample, r)[0]) for r in radii]
    d1, _ = _mc_nearest_two(spec, sample, n_test, alpha, seed)
    return [_monte_carlo((d1 > r).mean(), n_test, alpha, seed) for r in radii]


def conditional_missing_mass(spec, sample: Sample, r: float,
                             n_test: int = 100_000, alpha: float = 0.01,
                             seed=0) -> OracleEstimate:
    """Mass of the region farther than r from every sample point."""
    return conditional_missing_masses(spec, sample, [r], n_test=n_test,
                                      alpha=alpha, seed=seed)[0]


def smoothed_oracle_H(spec, sample: Sample, r: float,
                      n_test: int = 100_000, alpha: float = 0.01,
                      seed=0) -> OracleEstimate:
    """Average over k of the mass escaping all sample balls except the k-th.

    Sandwiched between the conditional missing mass and the same plus 1/n;
    its expectation equals that of the Good-Turing estimate.
    """
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    n = sample.n
    if n < 1:
        raise ValueError("sample must be non-empty")
    if has_exact_oracle(spec):
        m0, m1 = _exact_coverage(spec, sample, r)
        return _analytic(m0 + m1 / n)
    d1, d2 = _mc_nearest_two(spec, sample, n_test, alpha, seed)
    # Per test point the leave-one-out contribution lies in [0, 1], so one
    # Hoeffding width covers the averaged statistic despite shared points.
    z = (d1 > r) + ((d1 <= r) & (d2 > r)) / n
    return _monte_carlo(z.mean(), n_test, alpha, seed)


def expected_missing_mass(spec, n: int, r: float, replicates: int = 1000,
                          n_inner: int = 100_000, alpha: float = 0.01,
                          seed=0) -> OracleEstimate:
    """Expectation of the conditional missing mass over n-point samples.

    Exact for finite-support distributions: each atom escapes an n-sample
    with probability (1 - mu(B(atom, r)))^n by independence.  Otherwise an
    outer Monte Carlo over fresh samples, each evaluated by the strongest
    available inner branch.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    if is_finite_support(spec):
        w = spec.atom_weights()
        ball_mass = ((spec.atom_distance_matrix() <= r) * w[None, :]).sum(axis=1)
        return _analytic(float((w * (1.0 - ball_mass) ** n).sum()))
    if replicates < 1:
        raise ValueError("replicates must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    from .distributions import draw_sample
    values = np.empty(replicates)
    inner_width = 0.0
    for i in range(replicates):
        sub_seed = [seed, i] if seed is not None else None
        sample = draw_sample(spec, n, sub_seed)
        est = conditional_missing_mass(spec, sample, r, n_test=n_inner,
                                       alpha=alpha, seed=sub_seed)
        values[i] = est.value
        inner_width = max(inner_width, est.half_width)
    half_width = _hoeffding_halfwidth(replicates, alpha) + inner_width
    return OracleEstimate(float(values.mean()), half_width, MONTE_CARLO,
                          1.0 - alpha, n_test=replicates,
                          seed=_seed_field(seed))


# -- exact 1-D Wasserstein -----------------------------------------------------

def exact_wasserstein_1d(spec, sample: Sample) -> float:
    """W1 distance between a one-dimensional distribution and the empirical
    measure of the sample, computed as the exact area between the two CDFs."""
    if sample.space != euclidean(1):
        raise ValueError("exact W1 is implemented for 1-D euclidean samples only")
    xs = np.sort(np.asarray(sample.points, dtype=float).reshape(-1))
    n = len(xs)
    if isinstance(spec, UniformIntervalSpec):
        extra = np.array([spec.a, spec.b])
    elif isinstance(spec, PointMassSpec) and spec.dim == 1:
        extra = spec.atom_points().reshape(-1)
    else:
        raise ValueError("unsupported distribution for the exact 1-D oracle")
    knots = np.unique(np.concatenate([xs, extra]))
    total = 0.0
    for left, right in zip(knots[:-1], knots[1:]):
        c = np.searchsorted(xs, left, side="right") / n
        total += _piece_area(spec, float(left), float(right), float(c))
    return total


def _piece_area(spec, left: float, right: float, c: float) -> float:
    """Integral of |F - c| over (left, right) where F has no breakpoint."""
    width = right - left
    if isinstance(spec, UniformIntervalSpec):
        a, b = spec.a, spec.b
        if right <= a:
            return c * width
        if left >= b:
            return (1.0 - c) * width
        # Piece lies inside [a, b]: F is linear with slope 1/(b - a).
        f_left = (left - a) / (b - a)
        f_right = (right - a) / (b - a)
        if c <= f_left:
            return 0.5 * (f_left + f_right) * width - c * width
        if c >= f_right:
            return c * width - 0.5 * (f_left + f_right) * width
        cross = a + c * (b - a)
        lower = (c - 0.5 * (f_left + c)) * (cross - left)
        upper = (0.5 * (c + f_right) - c) * (right - cross)
        return lower + upper
    # Atomic distribution: F is constant strictly between breakpoints.
    f_mid = float(np.sum(spec.atom_weights()[spec.atom_points().reshape(-1)
                                             <= 0.5 * (left + right)]))
    return abs(f_mid - c) * width
