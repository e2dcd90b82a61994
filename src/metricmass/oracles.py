"""Ground-truth computation of the mass quantities used for validation.

The conditional missing mass of a sample is the probability, under the
generating distribution, of landing farther than r from every sample point.
It is an oracle quantity (it needs the distribution), so these routines are
what the estimators are judged against.

Three evaluation branches; :func:`oracle_branch` is the one place that
picks a spec's branch, from what the spec provides:

* ``finite``, a spec with atoms: exact summation over the atoms, using the
  sampled atom indices when the sample carries them (fast path) or explicit
  cross distances otherwise;
* ``interval``, a spec with a ``cdf`` on a line space: balls are coordinate
  intervals (:meth:`~metricmass.spaces.MetricSpace.ball_halfwidth`), so
  masses reduce to exact sweeps over merged intervals;
* ``monte_carlo``, everything else: fresh test points with a Hoeffding
  confidence half-width sqrt(ln(2/alpha) / (2N)).  Only each test point's
  nearest one or two distances to the sample are kept, from
  :meth:`~metricmass.samples.Sample.nearest_to`, which streams them in row
  blocks (at most ``SUMMARY_BLOCK_ELEMENTS`` = 2^18 entries alive at once).

Exact W1 (:func:`has_exact_w1`) takes the finite branch's atoms, or the
uniform interval, the one ``interval`` spec on ``euclidean(1)``.

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

from .distributions import draw_sample
from .samples import Sample
from .serialize import Record
from .spaces import euclidean

ANALYTIC = "analytic"
FINITE = "finite"
INTERVAL = "interval"
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


def oracle_branch(spec) -> str:
    """:data:`FINITE` for a spec with atoms, :data:`INTERVAL` for one with a
    ``cdf`` on a line space, else :data:`MONTE_CARLO`."""
    if hasattr(spec, "atom_weights"):
        return FINITE
    if hasattr(spec, "cdf") and spec.space().ball_halfwidth(0.0) is not None:
        return INTERVAL
    return MONTE_CARLO


# -- coverage decompositions -------------------------------------------------

def _finite_coverage(spec, sample: Sample, r: float) -> tuple[float, float]:
    """(mass covered by no sample ball, mass covered by exactly one)."""
    weights = spec.atom_weights()
    # Sample points by atoms: the atom distance matrices are exactly
    # symmetric, so gathering rows reads the same values as columns would.
    if sample.atom_indices is not None:
        dist = spec.atom_distance_matrix()[sample.atom_indices]
    else:
        dist = spec.space().cross_distances(sample.points, spec.atom_points())
    counts = (dist <= r).sum(axis=0)
    return float(weights[counts == 0].sum()), float(weights[counts == 1].sum())


def _interval_coverage(spec, sample: Sample, r: float) -> tuple[float, float]:
    """Coverage masses for scalar distributions: balls are intervals.

    One sweep over the 2n sorted endpoints, starts before ends at a tie so
    touching closed intervals leave no gap.  The masses are summed
    sequentially in sweep order (np.cumsum, not the pairwise np.sum), which
    keeps them bit-identical to an endpoint-by-endpoint loop.
    """
    xs = np.asarray(sample.points, dtype=float).reshape(-1)
    rho = spec.space().ball_halfwidth(r)
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


_COVERAGE = {FINITE: _finite_coverage, INTERVAL: _interval_coverage}


def _mc_nearest(spec, sample: Sample, n_test: int, alpha: float, seed,
                k: int) -> np.ndarray:
    """n_test x k distances from fresh draws to their nearest sample point
    (k = 1) or to their nearest and second-nearest (k = 2, inf in the second
    column for a one-point sample).

    Draws come ``_MC_CHUNK`` at a time, because the rng stream, and so every
    value, depends on the draw size; each chunk's distances are reduced by
    one :meth:`~metricmass.samples.Sample.nearest_to` pass.  Under the
    closed-ball convention a draw is covered by no sample ball iff d1 > r,
    and by exactly one iff d1 <= r < d2.
    """
    if n_test < 1:
        raise ValueError("n_test must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    nearest = np.empty((n_test, k))
    for start in range(0, n_test, _MC_CHUNK):
        stop = min(start + _MC_CHUNK, n_test)
        nearest[start:stop] = sample.nearest_to(spec.sample(stop - start, rng), k)
    return nearest


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
    branch = oracle_branch(spec)
    if branch != MONTE_CARLO:
        return [_analytic(_COVERAGE[branch](spec, sample, r)[0]) for r in radii]
    d1 = _mc_nearest(spec, sample, n_test, alpha, seed, k=1)[:, 0]
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
    branch = oracle_branch(spec)
    if branch != MONTE_CARLO:
        m0, m1 = _COVERAGE[branch](spec, sample, r)
        return _analytic(m0 + m1 / n)
    d1, d2 = _mc_nearest(spec, sample, n_test, alpha, seed, k=2).T
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
    if oracle_branch(spec) == FINITE:
        w = spec.atom_weights()
        ball_mass = ((spec.atom_distance_matrix() <= r) * w[None, :]).sum(axis=1)
        return _analytic(float((w * (1.0 - ball_mass) ** n).sum()))
    if replicates < 1:
        raise ValueError("replicates must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
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

def has_exact_w1(spec, sample: Sample) -> bool:
    """Whether :func:`exact_wasserstein_1d` applies: the spec and the sample
    lie on ``euclidean(1)`` and the spec has an exact branch."""
    line = euclidean(1)
    return (sample.space == line and spec.space() == line
            and oracle_branch(spec) != MONTE_CARLO)


def exact_wasserstein_1d(spec, sample: Sample) -> float:
    """W1 distance between a one-dimensional distribution and the empirical
    measure of the sample, computed as the exact area between the two CDFs."""
    if not has_exact_w1(spec, sample):
        raise ValueError("exact W1 needs a finite or uniform distribution and a "
                         "sample on the 1-D euclidean line")
    xs = np.sort(np.asarray(sample.points, dtype=float).reshape(-1))
    n = len(xs)
    atomic = oracle_branch(spec) == FINITE
    extra = spec.atom_points().reshape(-1) if atomic else np.array([spec.a, spec.b])
    piece_area = _atomic_piece_area if atomic else _uniform_piece_area
    knots = np.unique(np.concatenate([xs, extra]))
    total = 0.0
    for left, right in zip(knots[:-1], knots[1:]):
        c = np.searchsorted(xs, left, side="right") / n
        total += piece_area(spec, float(left), float(right), float(c))
    return total


def _uniform_piece_area(spec, left: float, right: float, c: float) -> float:
    """Integral of |F - c| over (left, right), which holds neither a nor b."""
    width = right - left
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


def _atomic_piece_area(spec, left: float, right: float, c: float) -> float:
    """Integral of |F - c| over (left, right), where F is constant."""
    f_mid = float(np.sum(spec.atom_weights()[spec.atom_points().reshape(-1)
                                             <= 0.5 * (left + right)]))
    return abs(f_mid - c) * (right - left)
