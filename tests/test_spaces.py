import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metricmass.applications import ProximityClassifier, coding_report
from metricmass.distributions import spec_from_dict
from metricmass.estimators import (
    all_martingale_estimates,
    escape_indicators,
    good_turing,
    good_turing_interval,
    martingale_upper_bound,
)
from metricmass.oracles import (
    conditional_missing_mass,
    conditional_missing_masses,
    expected_missing_mass,
    smoothed_oracle_H,
)
from metricmass.samples import (
    farthest_first_net,
    farthest_first_traversal,
    is_r_separated,
    make_sample,
    prefix_net_errors,
    verify_net,
)
from metricmass.separation import h_clique_relaxed, h_exact
from metricmass.simulate import SimulationConfig
from metricmass.spaces import (
    DimensionError,
    ball_contains,
    discrete,
    euclidean,
    lp,
    precomputed,
    scaled_indicator,
    space_from_dict,
)
from metricmass.wasserstein import w1_lower_bound, w1_report


def test_ball_boundary_is_included():
    space = euclidean(1)
    assert ball_contains(space, [0.0], 1.0, [1.0])


def test_discrete_ball_excludes_other_symbols_below_one():
    space = discrete()
    assert not ball_contains(space, "a", 0.5, "b")
    assert ball_contains(space, "a", 0.5, "a")


def test_scaled_indicator_ball():
    space = scaled_indicator(2.0)
    # d(0, 0.81) = 0.81**(1/2) = 0.9
    assert space.distance(0.0, 0.81) == pytest.approx(0.9)
    assert ball_contains(space, 0.0, 1.0, 0.81)


def test_discrete_distance_is_indicator():
    space = discrete()
    assert space.distance("x", "x") == 0.0
    assert space.distance("x", "y") == 1.0


def test_lp_matches_norm():
    space = lp(3, 1.0)
    assert space.distance([0, 0, 0], [1, 2, 3]) == pytest.approx(6.0)


def test_precomputed_validation():
    with pytest.raises(ValueError):
        precomputed([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        precomputed([[1.0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        precomputed([[0.0, -1.0], [-1.0, 0.0]])  # negative


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_precomputed_rejects_non_finite_entries(bad):
    # NaN entries used to fail as "must be symmetric"; inf entries passed.
    with pytest.raises(ValueError, match="finite"):
        precomputed([[0.0, bad], [bad, 0.0]])


def test_precomputed_reads_negative_zero_as_zero():
    # The sign bit of -0.0 would make its bit pattern negative.
    space = precomputed([[-0.0, -0.0, 1.0], [-0.0, 0.0, 2.0], [1.0, 2.0, -0.0]])
    assert not np.signbit(space.matrix).any()
    assert np.array_equal(space.matrix, [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])


def test_ball_rejects_nan_radius():
    with pytest.raises(ValueError, match="radius"):
        ball_contains(euclidean(1), [0.0], float("nan"), [0.0])


def radius_entry_points():
    """Every library call that takes a radius, each as a function of it."""
    s = make_sample(np.array([[0.0], [1.0], [3.0]]))
    spec = spec_from_dict({"kind": "uniform_interval", "a": 0.0, "b": 4.0})
    return {
        "ball_contains": lambda r: ball_contains(euclidean(1), [0.0], r, [0.0]),
        "good_turing": lambda r: good_turing(s, r),
        "escape_indicators": lambda r: escape_indicators(s, r),
        "all_martingale_estimates": lambda r: all_martingale_estimates(s, r),
        "martingale_upper_bound": lambda r: martingale_upper_bound(s, r, 0.1),
        "good_turing_interval": lambda r: good_turing_interval(s, r, 0.1),
        "is_r_separated": lambda r: is_r_separated(s, [0, 1], r),
        "farthest_first_traversal": lambda r: farthest_first_traversal(s, r),
        "farthest_first_net": lambda r: farthest_first_net(s, r),
        "verify_net": lambda r: verify_net(s, [0, 1, 2], r),
        "prefix_net_errors": lambda r: prefix_net_errors(s, [0, 1, 2], [(3, r)]),
        "conditional_missing_mass": lambda r: conditional_missing_mass(spec, s, r),
        "conditional_missing_masses": lambda r: conditional_missing_masses(spec, s, [0.5, r]),
        "smoothed_oracle_H": lambda r: smoothed_oracle_H(spec, s, r),
        "expected_missing_mass": lambda r: expected_missing_mass(spec, 3, r),
        "w1_lower_bound": lambda r: w1_lower_bound(0.5, r),
        "h_exact": lambda r: h_exact(s, r),
        "h_clique_relaxed": lambda r: h_clique_relaxed(s, r),
        "gamma": lambda r: ProximityClassifier(training=s, gamma=r),
        "epsilon": lambda r: coding_report(s, epsilon=r, delta=0.1),
        "simulate": lambda r: SimulationConfig(spec=spec, n=10, r=r),
    }


@pytest.mark.parametrize("name", sorted(radius_entry_points()))
def test_radius_entry_points_reject_inf_and_nan_and_accept_zero(name):
    # inf, which samples use for "no such point", used to pass: at r = inf
    # the first point had an earlier point within r, so escape_indicators
    # read [0, 0] where r = 1e300 reads [1, 0].
    call = radius_entry_points()[name]
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            call(bad)
    call(0.0)


def test_grid_radii_must_be_finite_and_positive():
    s = make_sample(np.array([[0.0], [0.5], [0.75], [1.0]]))
    for bad in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="grid radii must be finite and positive"):
            w1_report(s, [0.25, bad])
    assert len(w1_report(s, [0.25])) == 1


def test_precomputed_lookup_and_range():
    m = np.array([[0.0, 2.0], [2.0, 0.0]])
    space = precomputed(m)
    assert space.distance(0, 1) == 2.0
    with pytest.raises(DimensionError):
        space.as_points([0, 2])


def test_precomputed_stores_symmetric_matrix_unchanged():
    m = np.random.default_rng(0).uniform(size=(9, 9))
    m = m + m.T
    np.fill_diagonal(m, 0.0)
    assert np.array_equal(precomputed(m).matrix, m)
    # A diagonal allclose to zero is stored as exact zeros.
    near = m.copy()
    np.fill_diagonal(near, [1e-9, 1e-12, 5e-324] * 3)
    assert np.array_equal(precomputed(near).matrix, m)


def test_precomputed_keeps_large_finite_entries():
    # (m + m.T) / 2 overflows above about 9e307; halving first does not.
    big = np.finfo(float).max
    m = np.array([[0.0, 1e308, big], [1e308, 0.0, 5e-324], [big, 5e-324, 0.0]])
    assert np.array_equal(precomputed(m).matrix, m)
    nearly = np.array([[0.0, 1e308], [1e308 * (1 + 1e-15), 0.0]])
    assert np.array_equal(precomputed(nearly).matrix,
                          nearly / 2 + nearly.T / 2)


def test_dimension_mismatch():
    space = euclidean(2)
    with pytest.raises(DimensionError):
        space.distance([0.0], [1.0, 2.0])


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
       st.lists(st.floats(-50, 50), min_size=2, max_size=6))
def test_symmetry_and_self_distance(xs, ys):
    dim = min(len(xs), len(ys))
    space = euclidean(dim)
    x, y = xs[:dim], ys[:dim]
    assert space.distance(x, x) == 0.0
    assert space.distance(x, y) == pytest.approx(space.distance(y, x))


SYMBOLS = st.lists(st.text(alphabet="ab\u00e9 ", max_size=3), min_size=0, max_size=30)


# Floats with NaN, which is unequal to every symbol, itself included, and
# both zeros, which are equal.
FLOAT_SYMBOLS = st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, np.nan, np.inf]), max_size=30)


@given(st.one_of(SYMBOLS.map(np.array),
                 SYMBOLS.map(lambda v: np.array([x.encode() for x in v], dtype=bytes)),
                 st.lists(st.integers(-3, 3), max_size=30).map(np.array),
                 FLOAT_SYMBOLS.map(np.array)))
def test_discrete_symbol_codes_give_the_symbol_kernel(symbols):
    # Off the diagonal, which a NaN symbol leaves at 1, two codes are equal
    # exactly where the kernel gives 0.
    space = discrete()
    points = space.as_points(symbols)
    codes = space.symbol_codes(points)
    assert codes.dtype.kind == "i" and codes.shape == points.shape
    off = ~np.eye(len(points), dtype=bool)
    assert np.array_equal(space.kernel(codes, codes)[off], space.kernel(points, points)[off])


@pytest.mark.parametrize("space", [euclidean(2), lp(2, 1.0), scaled_indicator(2.0),
                                   precomputed([[0.0, 1.0], [1.0, 0.0]])])
def test_symbol_codes_are_none_off_discrete(space):
    points = space.as_points([[0.0, 1.0], [1.0, 1.0]] if space.dim == 2 else [0, 1])
    assert space.symbol_codes(points) is None
    # Nor are there codes for discrete symbols numpy does not sort.
    assert discrete().symbol_codes(np.array(["a", None, 1], dtype=object)) is None


@given(st.floats(0, 10), st.floats(0, 10), st.floats(0.01, 5), st.floats(1.1, 4))
def test_ball_membership_is_symmetric(a, b, r, p):
    space = scaled_indicator(p)
    assert ball_contains(space, a, r, b) == ball_contains(space, b, r, a)


LINES = [euclidean(1), lp(1, 3.0), scaled_indicator(2.0)]


@pytest.mark.parametrize("space", LINES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected(space, bad):
    with pytest.raises(ValueError, match="finite"):
        space.as_points([[0.0], [bad], [5.0]])
    with pytest.raises(ValueError, match="finite"):
        space.distance(0.0, bad)


@pytest.mark.parametrize("space", LINES + [euclidean(2), lp(3, 1.0), discrete(),
                                           precomputed([[0.0]])])
def test_ball_halfwidth_is_the_ball_on_a_line(space):
    r, x = 0.3, 1.0
    rho = space.ball_halfwidth(r)
    if space not in LINES:
        assert rho is None
        return
    for side in (-1.0, 1.0):
        assert space.distance(x, x + side * rho) == pytest.approx(r)
        assert ball_contains(space, x, r, x + side * 0.99 * rho)
        assert not ball_contains(space, x, r, x + side * 1.01 * rho)


def test_nan_sample_rejected_before_estimation():
    # [0, NaN, 5] at r = 1 used to give G = 0.0 instead of failing.
    from metricmass.samples import make_sample
    with pytest.raises(ValueError, match="finite"):
        make_sample(np.array([[0.0], [np.nan], [5.0]]))


def test_cross_distances_shape():
    space = euclidean(2)
    d = space.cross_distances([[0, 0], [1, 0], [0, 1]], [[0, 0], [3, 4]])
    assert d.shape == (3, 2)
    assert d[1, 1] == pytest.approx(np.hypot(2, 4))


@pytest.mark.parametrize("factory, args", [
    (euclidean, (2.5,)),
    (euclidean, (0,)),
    (euclidean, (np.nan,)),
    (lp, (2.5, 2.0)),
    (lp, (2, np.nan)),
    (lp, (2, 0.5)),
    (scaled_indicator, (np.nan,)),
    (scaled_indicator, (np.inf,)),
    (scaled_indicator, (0.5,)),
])
def test_factories_reject_bad_parameters(factory, args):
    # NaN exponents gave NaN kernels, scaled_indicator(inf) gave d(x, x) = 1
    # and euclidean(2.5) became 2-D.
    with pytest.raises(ValueError):
        factory(*args)


def test_lp_with_infinite_p_is_the_max_norm():
    assert lp(2, np.inf).distance([0.0, 0.0], [1.0, -3.0]) == 3.0


@pytest.mark.parametrize("payload, message", [
    ({"kind": "lp", "dim": 2}, "missing p"),
    ({"kind": "euclidean", "dim": 2, "p": 2.0}, "unexpected p"),
    ({"kind": "scaled_indicator", "dim": 2, "p": 2.0}, "unexpected dim"),
    ({"kind": "precomputed"}, "unknown space kind"),
])
def test_space_from_dict_rejects_malformed_payloads(payload, message):
    with pytest.raises(ValueError, match=message):
        space_from_dict(payload)


def test_scaled_spaces_rescale_every_distance():
    points = np.array([0.0, 0.3, 2.0])
    for space in (euclidean(1), lp(1, 3.0), scaled_indicator(2.0)):
        canon = space.as_points(points[:, None])
        scaled_points, scaled = space.scaled(canon, 4.0)
        assert scaled.kernel(scaled_points, scaled_points) == pytest.approx(
            4.0 * space.kernel(canon, canon))
    m = precomputed([[0.0, 1.0], [1.0, 0.0]])
    idx, scaled = m.scaled(np.arange(2), 0.5)
    assert scaled.kernel(idx, idx)[0, 1] == 0.5
    with pytest.raises(ValueError, match="rescaled"):
        discrete().scaled(np.array(["a"]), 2.0)
    with pytest.raises(ValueError, match="positive"):
        euclidean(1).scaled(np.zeros((1, 1)), 0.0)
