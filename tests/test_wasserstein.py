import math

import numpy as np
import pytest

from metricmass.distributions import PointMassSpec, UniformIntervalSpec, draw_sample
from metricmass.oracles import exact_wasserstein_1d
from metricmass.samples import Sample, farthest_first_net, make_sample
from metricmass.wasserstein import (
    default_r_grid,
    w1_lower_bound,
    w1_report,
    w1_upper_bounds,
)


def test_lower_bound_arithmetic():
    assert w1_lower_bound(0.0, 0.3) == 0.0
    assert w1_lower_bound(0.5, 0.0) == 0.0
    assert w1_lower_bound(0.5, 0.25) == 0.125
    with pytest.raises(ValueError):
        w1_lower_bound(1.5, 0.1)
    with pytest.raises(ValueError, match="radius"):
        w1_lower_bound(0.5, math.nan)


@pytest.mark.parametrize("grid", [[math.nan, 0.5], [0.5, math.nan]])
def test_report_rejects_nan_radius(grid):
    with pytest.raises(ValueError, match="positive"):
        w1_report(unit_sample(60), grid)


def test_report_rejects_overflowing_distances():
    # The inf diameter used to surface as "scale factor must be positive".
    s = make_sample(np.array([[0.0, 0.0], [1e200, 1e200], [-1e200, 3e200], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        w1_report(s, [0.5])
    with pytest.raises(ValueError, match="finite"):
        default_r_grid(s)


def unit_sample(n, seed=0):
    rng = np.random.default_rng(seed)
    return make_sample(rng.uniform(0, 1, size=(n, 1)))


def test_upper_bounds_formula():
    n, r, delta = 103, 0.1, 0.1
    rng = np.random.default_rng(1)
    s = make_sample(rng.uniform(0, 1, size=(n, 1)) * 0.999)
    net = farthest_first_net(s, r)
    m = len(net)
    rep = w1_upper_bounds(s, r, net, delta, mhat_upper=0.2)
    ratio = math.sqrt(m / (n - m))
    expect_b = min(1.0, 3 * r + 3 * ratio * (1 + math.sqrt(math.log(2 * n / delta))))
    expect_a = min(1.0, 0.2 + 3 * r + 2 * ratio * (1 + math.sqrt(math.log(n / delta))))
    assert rep.upper_b == pytest.approx(expect_b)
    assert rep.upper_a == pytest.approx(expect_a)
    assert rep.lower <= rep.upper_a and rep.lower <= rep.upper_b


def test_upper_bounds_vacuous_at_max_m():
    # m at the (n-3)/2 ceiling makes the net term dominate; clipped to 1.
    n = 103
    xs = np.linspace(0, 0.9, n)
    s = make_sample(xs[:, None])
    net = farthest_first_net(s, 0.017)
    m = len(net)
    assert m <= (n - 3) / 2
    rep = w1_upper_bounds(s, 0.017, net, 0.1)
    assert rep.upper_b == 1.0


def test_upper_bounds_reject_oversized_net():
    s = unit_sample(9)
    net = list(range(9))
    with pytest.raises(ValueError):
        w1_upper_bounds(s, 1e-6, net, 0.1)


def test_upper_bounds_reject_unnormalized():
    s = make_sample(np.array([[0.0], [5.0]]))
    with pytest.raises(ValueError):
        w1_upper_bounds(s, 1.0, [0, 1], 0.1)


def test_report_grid_sandwich_uniform():
    spec = UniformIntervalSpec(0.0, 1.0)
    s = draw_sample(spec, 400, seed=7)
    grid = list(np.geomspace(0.02, 0.2, 8))
    reports = w1_report(s, grid, 0.1, mu_spec=spec)
    exact = exact_wasserstein_1d(spec, s)
    lower = max(rep.lower for rep in reports)
    uppers = [rep for rep in reports if rep.upper_b is not None]
    assert uppers, "expected at least one radius with valid upper bounds"
    upper = min(min(rep.upper_a, rep.upper_b) for rep in uppers)
    assert lower <= exact + 1e-12
    assert exact <= upper + 1e-12


def test_report_point_mass_lowers_zero():
    spec = PointMassSpec(((0.5,),), (1.0,))
    n = 40
    s = Sample(np.full((n, 1), 0.5), spec.space())
    reports = w1_report(s, [0.05, 0.1], 0.2, mu_spec=spec)
    assert all(rep.lower == 0.0 for rep in reports)
    assert all(rep.m == 1 for rep in reports)
    # Smallest grid radius gives the best upper bound: 3r plus the net term.
    best = reports[0]
    net_term = 3 * math.sqrt(1 / (n - 1)) * (1 + math.sqrt(math.log(2 * n / best.delta)))
    assert best.upper_b == pytest.approx(min(1.0, 3 * 0.05 + net_term))
    assert min(rep.upper_b for rep in reports) == best.upper_b


def test_report_empty_grid_rejected():
    s = unit_sample(50)
    with pytest.raises(ValueError):
        w1_report(s, [], 0.1)


def test_report_without_oracle_uses_estimator():
    s = unit_sample(200, seed=3)
    reports = w1_report(s, [0.05, 0.1], 0.1)
    for rep in reports:
        assert rep.mhat is not None
        assert rep.lower == pytest.approx(rep.r * rep.mhat)


def test_default_grid_spans_percentile_to_median():
    s = unit_sample(300, seed=5)
    grid = default_r_grid(s)
    assert len(grid) == 20
    d = s.distance_matrix()[np.triu_indices(300, 1)]
    assert grid[0] == pytest.approx(np.percentile(d[d > 0], 1))
    assert grid[-1] == pytest.approx(np.median(d[d > 0]))


def test_default_grid_degenerate_sample():
    s = make_sample(np.zeros((10, 1)))
    with pytest.raises(ValueError):
        default_r_grid(s)


def test_scaling_invariance():
    spec = UniformIntervalSpec(0.0, 1.0)
    s = draw_sample(spec, 150, seed=11)
    c = 3.0
    scaled = s.with_distances_scaled(c)
    grid = [0.05, 0.1]
    base = w1_report(s, grid, 0.1)
    big = w1_report(scaled, [c * r for r in grid], 0.1)
    for rep_small, rep_big in zip(base, big):
        assert rep_big.m == rep_small.m
        assert rep_big.net_indices == rep_small.net_indices
        assert rep_big.lower == pytest.approx(c * rep_small.lower, rel=1e-9)
        if rep_small.upper_b is not None:
            assert rep_big.upper_b == pytest.approx(c * rep_small.upper_b, rel=1e-9)

    w_small = exact_wasserstein_1d(spec, s)
    spec_big = UniformIntervalSpec(0.0, c)
    s_big = Sample(s.points * c, spec_big.space())
    assert exact_wasserstein_1d(spec_big, s_big) == pytest.approx(c * w_small, rel=1e-9)


def test_upper_b_never_below_3r():
    s = unit_sample(120, seed=13)
    reports = w1_report(s, [0.05, 0.1, 0.2], 0.1)
    for rep in reports:
        if rep.upper_b is not None:
            assert rep.upper_b >= 3 * rep.r * 0.999 or rep.upper_b == 1.0 * rep.scale


def test_report_rejects_margin_below_one():
    # The sweep's scale would leave the normalized diameter above one.
    with pytest.raises(ValueError, match="diameter <= 1"):
        w1_report(unit_sample(50), [0.05, 0.1], margin=0.9)
