import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricmass.distributions import (
    BasisUniformSpec,
    DiscreteSpec,
    LowdimEmbeddingSpec,
    PointMassSpec,
    ScaledIndicatorSpec,
    SphereAtomSpec,
    UniformIntervalSpec,
    discrete_uniform,
    draw_sample,
)
from metricmass.oracles import (
    _interval_coverage,
    conditional_missing_mass,
    conditional_missing_masses,
    exact_wasserstein_1d,
    expected_missing_mass,
    has_exact_w1,
    oracle_branch,
    smoothed_oracle_H,
)
from metricmass import oracles, samples
from metricmass.samples import Sample

from helpers import (
    brute_missing_mass_finite,
    dense_nearest,
    interval_coverage_loop,
    mc_coverage_counts,
    pool_threads,
    scalar_cdf,
    transport_w1_atoms,
)


def interval_sample(spec, *xs):
    return Sample(np.array(xs, dtype=float)[:, None], spec.space())


@pytest.mark.parametrize("spec, branch", [
    (DiscreteSpec(("a", "b"), (0.5, 0.5)), "finite"),
    (PointMassSpec(((0.0, 1.0),), (1.0,)), "finite"),
    (SphereAtomSpec(3, 10), "finite"),
    (BasisUniformSpec(1), "finite"),
    (UniformIntervalSpec(0.0, 1.0), "interval"),
    (ScaledIndicatorSpec(p=2.0), "interval"),
    (LowdimEmbeddingSpec(1, 1), "monte_carlo"),
    (LowdimEmbeddingSpec(2, 5), "monte_carlo"),
])
def test_oracle_branch_of_each_kind(spec, branch):
    assert oracle_branch(spec) == branch


# -- conditional missing mass -------------------------------------------------

def test_uniform_interval_analytic():
    spec = UniformIntervalSpec(0.0, 1.0)
    s = interval_sample(spec, 0.5)
    est = conditional_missing_mass(spec, s, 0.25)
    assert est.method == "analytic"
    assert est.value == pytest.approx(0.5)


def test_discrete_unseen_atom():
    spec = DiscreteSpec(("a", "b", "c"), (0.5, 0.3, 0.2))
    s = draw_sample_from_symbols(spec, ["a", "b"])
    est = conditional_missing_mass(spec, s, 0.5)
    assert est.method == "analytic"
    assert est.value == pytest.approx(0.2)


def draw_sample_from_symbols(spec, symbols):
    return Sample(np.array(symbols), spec.space())


def test_radius_beyond_diameter_gives_zero():
    spec = DiscreteSpec(("a", "b"), (0.7, 0.3))
    s = draw_sample_from_symbols(spec, ["a"])
    assert conditional_missing_mass(spec, s, 1.0).value == 0.0

    uniform = UniformIntervalSpec(0.0, 1.0)
    su = interval_sample(uniform, 0.4)
    assert conditional_missing_mass(uniform, su, 1.5).value == 0.0


def test_finite_fast_path_matches_cross_distances():
    spec = SphereAtomSpec(dim=20, n_design=5)
    with_prov = draw_sample(spec, 5, seed=3)
    without = Sample(with_prov.points, with_prov.space)
    for r in (0.5, 1.2):
        a = conditional_missing_mass(spec, with_prov, r).value
        b = conditional_missing_mass(spec, without, r).value
        assert a == pytest.approx(b)
        brute = brute_missing_mass_finite(
            list(spec.atom_points()), spec.atom_weights(),
            list(without.points), spec.space(), r)
        assert a == pytest.approx(brute)


@given(st.integers(1, 12), st.integers(1, 40), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60)
def test_discrete_cover_counts_match_the_matrix_path(k, n, strings, seed):
    # The finite oracle counts each symbol's covering balls from the drawn
    # atom indices, reading no atom distance; the gather of the atom
    # distance matrix and the cross distances give the same masses bit for
    # bit.
    rng = np.random.default_rng(seed)
    symbols = tuple(f"s{i}" for i in range(k)) if strings else tuple(range(-3, k - 3))
    spec = DiscreteSpec(symbols, tuple(rng.dirichlet(np.ones(k))))
    drawn = draw_sample(spec, n, seed)
    plain = Sample(drawn.points, drawn.space)
    weights = spec.atom_weights()
    for r in [0.0, 0.5, float(np.nextafter(1.0, 0.0)), 1.0, 1.5]:
        counts = (spec.atom_distance_matrix()[drawn.atom_indices] <= r).sum(axis=0)
        matrix = (float(weights[counts == 0].sum()), float(weights[counts == 1].sum()))
        with mock.patch.object(DiscreteSpec, "atom_distance_matrix",
                               side_effect=AssertionError("matrix read")):
            assert oracles._finite_coverage(spec, drawn, r) == matrix
        assert oracles._finite_coverage(spec, plain, r) == matrix


def test_interval_branch_matches_brute_force():
    spec = UniformIntervalSpec(0.0, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        s = Sample(rng.uniform(0, 1, size=(n, 1)), spec.space())
        r = float(rng.uniform(0.01, 0.4))
        got = conditional_missing_mass(spec, s, r).value
        # Independent quadrature over a fine mesh.
        mesh = np.linspace(0, 1, 200_001)
        covered = (np.abs(mesh[:, None] - s.points.reshape(-1)[None, :]) <= r).any(axis=1)
        assert got == pytest.approx(1.0 - covered.mean(), abs=1e-4)


def test_monte_carlo_branch_agrees_with_analytic_shape():
    spec = LowdimEmbeddingSpec(1, 1, spread=0.0, component_std=1.0)  # plain gaussian
    s = Sample(np.array([[0.0]]), spec.space())
    est = conditional_missing_mass(spec, s, 1.0, n_test=40_000, alpha=0.01, seed=0)
    assert est.method == "monte_carlo"
    # Mass outside [-1, 1] under a standard normal.
    truth = 2 * (1 - 0.8413447460685429)
    assert abs(est.value - truth) <= est.half_width + 1e-3
    assert est.half_width == pytest.approx(math.sqrt(math.log(200) / 80_000))


def test_mc_determinism():
    spec = LowdimEmbeddingSpec(1, 1)
    s = Sample(np.array([[0.0]]), spec.space())
    a = conditional_missing_mass(spec, s, 0.5, n_test=5000, seed=7)
    b = conditional_missing_mass(spec, s, 0.5, n_test=5000, seed=7)
    assert a.value == b.value


def test_antitone_in_radius_and_extension():
    spec = UniformIntervalSpec(0.0, 1.0)
    rng = np.random.default_rng(4)
    xs = rng.uniform(0, 1, size=12)
    s_small = Sample(xs[:6, None], spec.space())
    s_full = Sample(xs[:, None], spec.space())
    v1 = conditional_missing_mass(spec, s_full, 0.05).value
    v2 = conditional_missing_mass(spec, s_full, 0.1).value
    assert v2 <= v1
    assert (conditional_missing_mass(spec, s_full, 0.05).value
            <= conditional_missing_mass(spec, s_small, 0.05).value)


# -- the interval sweep against the endpoint-by-endpoint loop ------------------

# Coordinates on a grid of eighths as well as arbitrary floats, so that
# coincident endpoints and intervals touching at exactly 2 rho come up often.
_grid = st.integers(0, 16).map(lambda k: k / 8.0)
_coords = st.one_of(_grid, st.floats(0.0, 2.0, allow_nan=False))


def _scalar_case(spec, points, r):
    sample = Sample(np.array(points, dtype=float).reshape(-1, 1), spec.space())
    got = _interval_coverage(spec, sample, r)
    assert got == interval_coverage_loop(spec, points, r)
    # Both masses come back as Python floats, like the loop's.
    assert all(type(m) is float for m in got)


@settings(max_examples=150, deadline=None)
@given(points=st.lists(_coords, min_size=1, max_size=25),
       r=st.one_of(st.integers(0, 8).map(lambda k: k / 16.0), st.floats(0.0, 1.0)),
       b=st.sampled_from([1.0, 2.0, 1.7]))
@example(points=[0.5], r=0.25, b=1.0)                      # n = 1
@example(points=[0.25, 0.25, 0.75], r=0.125, b=1.0)         # coincident points
@example(points=[0.25, 0.5, 0.75], r=0.125, b=1.0)          # touching at 2 rho
@example(points=[0.0, 1.0], r=0.5, b=1.0)                   # balls meet at 0.5
def test_interval_sweep_matches_loop_uniform(points, r, b):
    _scalar_case(UniformIntervalSpec(0.0, b), points, r)


@settings(max_examples=150, deadline=None)
@given(points=st.lists(_coords, min_size=1, max_size=25),
       r=st.one_of(st.integers(0, 8).map(lambda k: k / 8.0), st.floats(0.0, 1.5)),
       p=st.sampled_from([2.0, 1.5, 3.0]),
       rate=st.sampled_from([1.0, 0.5, 2.5]))
@example(points=[0.0], r=0.5, p=2.0, rate=1.0)              # n = 1 at 0
@example(points=[0.0, 0.0, 0.0], r=0.5, p=2.0, rate=1.0)    # coincident at 0
@example(points=[0.0, 0.5], r=0.5, p=2.0, rate=1.0)         # touching at 2 rho = 0.5
@example(points=[0.0, 0.25, 1.0], r=0.0, p=2.0, rate=1.0)   # r = 0
def test_interval_sweep_matches_loop_scaled_indicator(points, r, p, rate):
    _scalar_case(ScaledIndicatorSpec(p=p, rate=rate), points, r)


@pytest.mark.parametrize("spec", [UniformIntervalSpec(0.0, 1.0),
                                  UniformIntervalSpec(0.3, 1.7),
                                  ScaledIndicatorSpec(p=2.0)])
def test_interval_sweep_matches_loop_at_campaign_sizes(spec):
    # Up to hundreds of uncovered gaps: summing them in any order other than
    # the loop's (np.sum's pairwise one, say) rounds differently here.
    for seed in range(8):
        points = draw_sample(spec, (30, 100, 500)[seed % 3], seed).points
        for r in (0.0005, 0.004, 0.02, 0.1):
            _scalar_case(spec, points, r)


@pytest.mark.parametrize("spec", [UniformIntervalSpec(-1.0, 2.0),
                                  ScaledIndicatorSpec(p=2.0, rate=1.5)])
def test_array_cdf_matches_scalar_cdf(spec):
    xs = np.concatenate([np.linspace(-2.0, 3.0, 1001),
                         np.random.default_rng(0).exponential(size=1000)])
    assert spec.cdf(xs).tolist() == [scalar_cdf(spec, x) for x in xs.tolist()]


# -- the shared Monte Carlo kernel ---------------------------------------------

class _Opaque:
    """A distribution without an exact oracle: it only draws points."""

    def __init__(self, draw, space):
        self.draw = draw
        self._space = space

    def space(self):
        return self._space

    def sample(self, count, rng):
        return self.draw(count, rng)


def _opaque_gaussian(dim):
    spec = LowdimEmbeddingSpec(dim, dim)
    return _Opaque(spec.sample, spec.space())


def test_radius_sweep_equals_one_radius_calls():
    spec = _opaque_gaussian(2)
    s = draw_sample(LowdimEmbeddingSpec(2, 2), 30, seed=4)
    radii = [0.05, 0.2, 0.2, 0.5, 1.0, 3.0]
    for k in (0, 11, [5, 2]):
        swept = conditional_missing_masses(spec, s, radii, n_test=20_000, seed=k)
        assert len(swept) == len(radii)
        for r, est in zip(radii, swept):
            assert est.method == "monte_carlo"
            assert est == conditional_missing_mass(spec, s, r, n_test=20_000, seed=k)


# Row-block budgets of the Monte Carlo distances: one row per block, a few
# rows that split each draw chunk unevenly, and the default.
MC_BLOCKS = [1, 7, 1000, samples.SUMMARY_BLOCK_ELEMENTS]


@pytest.mark.parametrize("n", [1, 2, 17])
def test_monte_carlo_oracles_match_coverage_counts(n):
    spec = _opaque_gaussian(3)
    s = draw_sample(LowdimEmbeddingSpec(3, 3), n, seed=n)
    n_test = 20_000  # more than two chunks, the last one partial
    for r in (0.3, 1.0, 2.5):
        counts = mc_coverage_counts(spec, s, r, n_test, seed=9)
        z = (counts == 0) + (counts == 1) / n
        # Budget 7 already gives one-row blocks on the 17-point sample; budget
        # 1 would only repeat that, slowly, over 20,000 draws.
        for block in MC_BLOCKS[1:]:
            with mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", block):
                assert conditional_missing_mass(spec, s, r, n_test=n_test, seed=9).value \
                    == float((counts == 0).mean())
                assert smoothed_oracle_H(spec, s, r, n_test=n_test, seed=9).value \
                    == float(z.mean())
    # On pool threads, whose blocks take a share of each budget, every
    # nearest distance is the calling thread's, bit for bit.
    for k in (1, 2):
        with pool_threads(1):
            alone = oracles._mc_nearest(spec, s, n_test, 0.01, 9, k)
        for threads in (2, 3):
            for block in MC_BLOCKS[1:]:
                with pool_threads(threads), \
                        mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", block):
                    assert np.array_equal(oracles._mc_nearest(spec, s, n_test, 0.01, 9, k), alone)
    # The nearest distances themselves, on lattice points at many tied
    # distances, are the dense matrix's smallest ones.
    rng = np.random.default_rng(n)
    lattice = Sample(rng.integers(0, 3, size=(n, 3)).astype(float), s.space)
    queries = rng.integers(-1, 4, size=(50, 3)).astype(float)
    for k, threads, block in itertools.product((1, 2), (1, 2, 3), MC_BLOCKS):
        with pool_threads(threads), mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", block):
            assert np.array_equal(lattice.nearest_to(queries, k), dense_nearest(lattice, queries, k))
    with pytest.raises(ValueError, match="k must be"):
        lattice.nearest_to(queries, 3)


def test_monte_carlo_closed_ball_at_exact_radius():
    # Every test point lands at 1.0: distance exactly r = 1 from 0 and 2.
    at_one = _Opaque(lambda count, rng: np.ones((count, 1)), UniformIntervalSpec(0, 1).space())
    below = float(np.nextafter(1.0, 0.0))
    one_ball = Sample(np.array([[0.0], [5.0]]), at_one.space())
    two_balls = Sample(np.array([[0.0], [2.0]]), at_one.space())
    for block, threads in itertools.product(MC_BLOCKS, (1, 2, 3)):
        with mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", block), pool_threads(threads):
            assert conditional_missing_mass(at_one, one_ball, 1.0, n_test=10).value == 0.0
            assert conditional_missing_mass(at_one, one_ball, below, n_test=10).value == 1.0
            # Covered by exactly one ball: in that ball's leave-one-out region only.
            assert smoothed_oracle_H(at_one, one_ball, 1.0, n_test=10).value == 0.5
            # Covered by both balls at d1 = d2 = r: in no leave-one-out region.
            assert smoothed_oracle_H(at_one, two_balls, 1.0, n_test=10).value == 0.0
            assert smoothed_oracle_H(at_one, two_balls, below, n_test=10).value == 1.0


# -- smoothed leave-one-out quantity -------------------------------------------

def test_H_single_point_is_one():
    spec = UniformIntervalSpec(0.0, 1.0)
    s = interval_sample(spec, 0.5)
    assert smoothed_oracle_H(spec, s, 0.25).value == pytest.approx(1.0)


def test_H_identical_atoms_zero():
    spec = DiscreteSpec(("a",), (1.0,))
    s = draw_sample_from_symbols(spec, ["a", "a"])
    assert smoothed_oracle_H(spec, s, 0.5).value == 0.0


def test_H_sandwich_everywhere():
    rng = np.random.default_rng(8)
    uniform = UniformIntervalSpec(0.0, 1.0)
    zipfish = discrete_uniform(6)
    for _ in range(25):
        n = int(rng.integers(1, 15))
        r = float(rng.uniform(0.02, 0.5))
        s = draw_sample(uniform, n, int(rng.integers(10_000)))
        mhat = conditional_missing_mass(uniform, s, r).value
        h_val = smoothed_oracle_H(uniform, s, r).value
        assert mhat - 1e-12 <= h_val <= mhat + 1.0 / n + 1e-12

        sd = draw_sample(zipfish, n, int(rng.integers(10_000)))
        mhat_d = conditional_missing_mass(zipfish, sd, 0.5).value
        h_d = smoothed_oracle_H(zipfish, sd, 0.5).value
        assert mhat_d - 1e-12 <= h_d <= mhat_d + 1.0 / n + 1e-12


def test_H_matches_leave_one_out_definition():
    spec = DiscreteSpec(("a", "b", "c", "d"), (0.4, 0.3, 0.2, 0.1))
    symbols = ["a", "b", "b", "c"]
    s = draw_sample_from_symbols(spec, symbols)
    n = len(symbols)
    total = 0.0
    for k in range(n):
        rest = symbols[:k] + symbols[k + 1:]
        total += brute_missing_mass_finite(
            list(spec.atom_points()), spec.atom_weights(), rest, spec.space(), 0.5)
    assert smoothed_oracle_H(spec, s, 0.5).value == pytest.approx(total / n)


def test_H_monte_carlo_close_to_analytic():
    spec = UniformIntervalSpec(0.0, 1.0)
    s = draw_sample(spec, 8, seed=5)
    exact = smoothed_oracle_H(spec, s, 0.1).value
    opaque = _Opaque(spec.sample, spec.space())
    est = smoothed_oracle_H(opaque, s, 0.1, n_test=60_000, alpha=0.01, seed=1)
    assert est.method == "monte_carlo"
    assert abs(est.value - exact) <= est.half_width


# -- expected missing mass ------------------------------------------------------

def test_expected_mass_two_symbols():
    spec = DiscreteSpec(("a", "b"), (0.5, 0.5))
    est = expected_missing_mass(spec, 1, 0.5)
    assert est.method == "analytic"
    assert est.value == pytest.approx(0.5)


def test_expected_mass_single_atom_zero():
    spec = DiscreteSpec(("a",), (1.0,))
    assert expected_missing_mass(spec, 1, 0.5).value == 0.0


def test_expected_mass_closed_form_uniform_symbols():
    k, n = 10, 20
    spec = discrete_uniform(k)
    est = expected_missing_mass(spec, n, 0.5)
    assert est.value == pytest.approx(k * (1 / k) * (1 - 1 / k) ** n)


def test_expected_mass_beyond_diameter():
    spec = discrete_uniform(3)
    assert expected_missing_mass(spec, 4, 1.0).value == 0.0


def test_expected_mass_monte_carlo_uniform():
    spec = UniformIntervalSpec(0.0, 1.0)
    est = expected_missing_mass(spec, 10, 0.1, replicates=400, seed=0)
    assert est.method == "monte_carlo"
    # Envelope of 10 balls of radius 0.1; from an independent 4000-rep run
    # the expectation is near 0.128, well inside the reported width.
    rng = np.random.default_rng(99)
    vals = []
    for _ in range(4000):
        xs = rng.uniform(0, 1, 10)
        mesh = np.linspace(0, 1, 2001)
        covered = (np.abs(mesh[:, None] - xs[None, :]) <= 0.1).any(axis=1)
        vals.append(1 - covered.mean())
    assert abs(est.value - np.mean(vals)) <= est.half_width + 0.01


# -- exact one-dimensional Wasserstein -----------------------------------------

def test_w1_point_mass_identical():
    spec = PointMassSpec(((2.0,),), (1.0,))
    s = Sample(np.array([[2.0]]), spec.space())
    assert exact_wasserstein_1d(spec, s) == 0.0


def test_w1_two_atoms():
    spec = PointMassSpec(((0.0,), (1.0,)), (0.5, 0.5))
    s = Sample(np.array([[0.0], [0.0]]), spec.space())
    assert exact_wasserstein_1d(spec, s) == pytest.approx(0.5)
    lp = transport_w1_atoms(np.array([0.0, 1.0]), np.array([0.5, 0.5]),
                            np.array([0.0]), np.array([1.0]))
    assert exact_wasserstein_1d(spec, s) == pytest.approx(lp)


def test_w1_uniform_single_point():
    spec = UniformIntervalSpec(0.0, 1.0)
    s = Sample(np.array([[0.5]]), spec.space())
    assert exact_wasserstein_1d(spec, s) == pytest.approx(0.25)


def test_w1_uniform_against_quadrature():
    spec = UniformIntervalSpec(0.0, 1.0)
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(1, 30))
        xs = np.sort(rng.uniform(0, 1, n))
        s = Sample(xs[:, None], spec.space())
        got = exact_wasserstein_1d(spec, s)
        mesh = np.linspace(-0.1, 1.1, 400_001)
        f_mu = np.clip(mesh, 0, 1)
        f_hat = np.searchsorted(xs, mesh, side="right") / n
        quad = np.trapezoid(np.abs(f_mu - f_hat), mesh)
        assert got == pytest.approx(quad, abs=5e-5)


def test_w1_dominates_scaled_missing_mass():
    spec = UniformIntervalSpec(0.0, 1.0)
    rng = np.random.default_rng(14)
    for _ in range(15):
        s = draw_sample(spec, int(rng.integers(2, 50)), int(rng.integers(1000)))
        w1 = exact_wasserstein_1d(spec, s)
        for r in (0.01, 0.05, 0.2):
            mhat = conditional_missing_mass(spec, s, r).value
            assert w1 >= r * mhat - 1e-12


@pytest.mark.parametrize("spec", [BasisUniformSpec(1), SphereAtomSpec(1, 3), SphereAtomSpec(1, 50),
                                  PointMassSpec(((0.5,), (-1.0,), (2.0,)), (0.2, 0.3, 0.5))])
def test_w1_finite_spec_on_the_line_equals_its_point_masses(spec):
    twin = PointMassSpec(tuple(map(tuple, spec.atom_points().tolist())),
                         tuple(spec.atom_weights().tolist()))
    for seed in range(6):
        s = draw_sample(spec, 1 + 7 * seed, seed)
        assert exact_wasserstein_1d(spec, s) == exact_wasserstein_1d(twin, s)
        counts = np.bincount(s.atom_indices, minlength=len(twin.weights))
        lp = transport_w1_atoms(twin.atom_points().reshape(-1), twin.atom_weights(),
                                twin.atom_points().reshape(-1), counts / s.n)
        assert exact_wasserstein_1d(spec, s) == pytest.approx(lp, abs=1e-9)


def test_w1_unsupported_space():
    spec = ScaledIndicatorSpec(p=2.0)
    s = draw_sample(spec, 5, seed=0)
    with pytest.raises(ValueError):
        exact_wasserstein_1d(spec, s)


@pytest.mark.parametrize("spec", [LowdimEmbeddingSpec(1, 1), BasisUniformSpec(2)])
def test_w1_needs_the_line_and_an_exact_branch(spec):
    s = draw_sample(spec, 5, seed=0)
    assert not has_exact_w1(spec, s)
    with pytest.raises(ValueError, match="exact W1"):
        exact_wasserstein_1d(spec, s)


def test_nan_radius_rejected():
    spec = UniformIntervalSpec(0.0, 1.0)
    sample = draw_sample(spec, 10, 0)
    for fn in (conditional_missing_mass, smoothed_oracle_H):
        with pytest.raises(ValueError, match="radius"):
            fn(spec, sample, math.nan)
    with pytest.raises(ValueError, match="radius"):
        conditional_missing_masses(spec, sample, [0.1, math.nan])
    with pytest.raises(ValueError, match="radius"):
        expected_missing_mass(spec, 10, math.nan)
