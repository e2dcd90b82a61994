"""Ground-truth computation of the mass quantities used for validation.

The conditional missing mass of a sample is the probability, under the
generating distribution, of landing farther than r from every sample point.
It is an oracle quantity (it needs the distribution), so these routines are
what the estimators are judged against.

Three evaluation branches; :func:`oracle_branch` is the one place that
picks a spec's branch, from what the spec provides:

* ``finite``, a spec with atoms: exact summation over the atoms, using the
  sampled atom indices when the sample carries them (fast path) or explicit
  cross distances otherwise.  On the discrete metric the indices alone
  count each atom's covering balls, in O(n + atoms): an r-ball is its
  centre alone for r < 1 and the whole space for r >= 1, and no two atoms
  of a ``DiscreteSpec`` share a symbol.  So the expected missing mass reads
  each atom's ball mass from the weights there, with no atom matrix;
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
from .samples import SUMMARY_BLOCK_ELEMENTS, Sample
from .serialize import Record
from .spaces import check_radius, discrete, euclidean

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
#
# Each branch computes the masses of a stack of samples of one size at once:
# ``points`` holds their canonical points and ``atoms`` their atom indices
# (None for samples without them) along a leading axis, and each mass comes
# back per sample.

def _finite_coverage(spec, points: np.ndarray, atoms: np.ndarray | None,
                     r: float) -> tuple[np.ndarray, np.ndarray]:
    """(mass covered by no sample ball, mass covered by exactly one)."""
    weights = spec.atom_weights()
    k = len(weights)
    if atoms is not None and spec.space() == discrete():
        # Adding k times its row gives each sample atoms of its own.
        counts = (np.bincount((atoms + k * np.arange(len(atoms))[:, None]).ravel(),
                              minlength=k * len(atoms)).reshape(len(atoms), k) if r < 1
                  else np.full((len(atoms), k), atoms.shape[1]))
    elif atoms is not None:
        # Sample points by atoms: the atom distance matrices are exactly
        # symmetric, so gathering rows reads the same values as columns
        # would.  A gather holds at most SUMMARY_BLOCK_ELEMENTS distances,
        # or one sample's.
        matrix = spec.atom_distance_matrix()
        step = max(1, SUMMARY_BLOCK_ELEMENTS // atoms[0].size // k)
        counts = np.concatenate([(matrix[atoms[s:s + step]] <= r).sum(axis=1)
                                 for s in range(0, len(atoms), step)])
    else:
        space, centres = spec.space(), spec.atom_points()
        counts = np.array([(space.cross_distances(sample, centres) <= r).sum(axis=0)
                           for sample in points])
    # One sum per sample: summing masked rows of the stack would add in
    # another order.
    return (np.array([weights[row == 0].sum() for row in counts]),
            np.array([weights[row == 1].sum() for row in counts]))


def _interval_coverage(spec, points: np.ndarray, atoms: np.ndarray | None,
                       r: float) -> tuple[np.ndarray, np.ndarray]:
    """Coverage masses for scalar distributions: balls are intervals.

    One sweep over each sample's 2n sorted endpoints, starts before ends at
    a tie so touching closed intervals leave no gap.  The masses are summed
    sequentially in sweep order (np.cumsum, not the pairwise np.sum), which
    keeps them bit-identical to an endpoint-by-endpoint loop; a gap that
    does not count adds 0.0, which leaves every partial sum, never -0.0,
    unchanged.
    """
    xs = np.asarray(points, dtype=float).reshape(len(points), -1)
    rho = spec.space().ball_halfwidth(r)
    pos = np.concatenate([xs - rho, xs + rho], axis=1)
    delta = np.repeat(np.array([1, -1], dtype=np.int64), xs.shape[1])
    order = np.lexsort((np.broadcast_to(-delta, pos.shape), pos), axis=-1)
    pos = np.take_along_axis(pos, order, axis=1)
    cdf = spec.cdf(pos)
    # Balls covering the gap (pos[k-1], pos[k]), for k >= 1.
    count = np.cumsum(delta[order], axis=1)[:, :-1]
    mass = cdf[:, 1:] - cdf[:, :-1]
    gap = pos[:, 1:] > pos[:, :-1]

    def swept(covers: int, first: np.ndarray, last: np.ndarray) -> np.ndarray:
        # From 0.0: first, the gaps ``covers`` balls cover, then last.
        terms = np.concatenate([np.zeros((len(pos), 1)), first[:, None],
                                np.where(gap & (count == covers), mass, 0.0), last[:, None]],
                               axis=1)
        return np.cumsum(terms, axis=1)[:, -1]

    none = np.zeros(len(pos))
    return swept(0, cdf[:, 0], 1.0 - cdf[:, -1]), swept(1, none, none)


_COVERAGE = {FINITE: _finite_coverage, INTERVAL: _interval_coverage}


def coverage_masses(spec, points: np.ndarray, atoms: np.ndarray | None,
                    r: float) -> tuple[np.ndarray, np.ndarray]:
    """Per sample of a stack, the masses covered by no sample ball and by
    exactly one, by the spec's exact branch; ``points`` and ``atoms`` (or
    None) hold the samples' canonical points and atom indices along a
    leading axis."""
    return _COVERAGE[oracle_branch(spec)](spec, points, atoms, r)


def _coverage(spec, sample: Sample, r: float) -> tuple[float, float]:
    """:func:`coverage_masses` of one sample, as Python floats."""
    atoms = None if sample.atom_indices is None else sample.atom_indices[None]
    m0, m1 = coverage_masses(spec, sample.points[None], atoms, r)
    return float(m0[0]), float(m1[0])


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
    check_radius(*radii)
    if sample.n < 1:
        raise ValueError("sample must be non-empty")
    branch = oracle_branch(spec)
    if branch != MONTE_CARLO:
        return [_analytic(_coverage(spec, sample, r)[0]) for r in radii]
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
    check_radius(r)
    n = sample.n
    if n < 1:
        raise ValueError("sample must be non-empty")
    branch = oracle_branch(spec)
    if branch != MONTE_CARLO:
        m0, m1 = _coverage(spec, sample, r)
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
    check_radius(r)
    if oracle_branch(spec) == FINITE:
        w = spec.atom_weights()
        # On the discrete metric no matrix is read: its row sums would add
        # the same weights and zeros.
        if spec.space() == discrete():
            ball_mass = w if r < 1 else np.full(len(w), w.sum())
        else:
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
