import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricmass.estimators import (
    Estimate,
    all_martingale_estimates,
    escape_indicators,
    good_turing,
    good_turing_interval,
    martingale_estimate,
    martingale_upper_bound,
    net_missing_mass_bound,
    sequential_bounds,
    subsample_supremum_slack,
)
from metricmass.samples import InvalidNetError, farthest_first_net, make_sample
from metricmass.spaces import discrete

from helpers import brute_good_turing, brute_martingale


def line_sample(*xs):
    return make_sample(np.array(xs, dtype=float)[:, None])


# -- Good-Turing ----------------------------------------------------------------

def test_gt_identical_points_zero():
    s = line_sample(*([1.0] * 6))
    assert good_turing(s, 0.5) == 0.0


def test_gt_fully_separated_one():
    s = line_sample(0.0, 10.0, 20.0)
    assert good_turing(s, 1.0) == 1.0


def test_gt_discrete_singleton_fraction():
    s = make_sample(np.array(["a", "a", "b", "c"]), discrete())
    assert good_turing(s, 0.5) == 0.5


def test_gt_empty_sample_rejected():
    with pytest.raises(ValueError):
        good_turing(make_sample(np.zeros((0, 1))), 1.0)


def test_negative_radius_rejected():
    s = line_sample(0.0, 10.0, 20.0)
    for fn in (good_turing, escape_indicators, all_martingale_estimates):
        with pytest.raises(ValueError, match="radius"):
            fn(s, -1.0)
    with pytest.raises(ValueError, match="radius"):
        martingale_upper_bound(s, -1.0, 0.1)


def test_nan_radius_rejected():
    # NaN passed ``r < 0``: good_turing at NaN read every point as isolated.
    s = line_sample(0.0, 10.0, 20.0)
    for fn in (good_turing, escape_indicators, all_martingale_estimates):
        with pytest.raises(ValueError, match="radius"):
            fn(s, math.nan)
    with pytest.raises(ValueError, match="radius"):
        martingale_upper_bound(s, math.nan, 0.1)


def test_gt_matches_brute_force_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        pts = rng.normal(size=(n, 2))
        s = make_sample(pts)
        r = float(rng.uniform(0.1, 3.0))
        assert good_turing(s, r) == pytest.approx(
            brute_good_turing(list(pts), s.space, r))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_gt_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    pts = rng.normal(size=(n, 2))
    r = float(rng.uniform(0.1, 2.0))
    s = make_sample(pts)
    perm = rng.permutation(n)
    assert good_turing(s, r) == good_turing(make_sample(pts[perm]), r)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_monotone_in_radius(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    pts = rng.normal(size=(n, 2))
    s = make_sample(pts)
    r1, r2 = sorted(rng.uniform(0.05, 2.5, size=2))
    assert good_turing(s, r1) >= good_turing(s, r2)
    m = int(rng.integers(1, n + 1))
    assert martingale_estimate(s, r1, m) >= martingale_estimate(s, r2, m)


# -- sequential estimators ---------------------------------------------------

def test_martingale_identical_points():
    s = line_sample(*([2.0] * 5))
    assert martingale_estimate(s, 1.0, 5) == pytest.approx(1 / 5)


def test_martingale_separated_is_one():
    s = line_sample(0.0, 10.0, 20.0)
    for m in (1, 2, 3):
        assert martingale_estimate(s, 1.0, m) == 1.0


def test_martingale_hand_example():
    s = line_sample(0.0, 3.0, 0.5)
    assert martingale_estimate(s, 1.0, 2) == 0.5


def test_martingale_m_out_of_range():
    s = line_sample(0.0, 1.0)
    with pytest.raises(ValueError):
        martingale_estimate(s, 1.0, 3)
    with pytest.raises(ValueError):
        martingale_estimate(s, 1.0, 0)


def test_martingale_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        pts = rng.normal(size=(n, 2))
        s = make_sample(pts)
        r = float(rng.uniform(0.1, 3.0))
        m = int(rng.integers(1, n + 1))
        assert martingale_estimate(s, r, m) == pytest.approx(
            brute_martingale(list(pts), s.space, r, m))


def test_gt_below_full_martingale():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        pts = rng.normal(size=(n, 1))
        s = make_sample(pts)
        r = float(rng.uniform(0.05, 2.0))
        assert good_turing(s, r) <= martingale_estimate(s, r, n) + 1e-12


def test_first_escape_indicator_is_one():
    s = line_sample(7.0)
    assert escape_indicators(s, 5.0)[0] == 1.0


def test_all_martingale_estimates_consistent():
    s = line_sample(0.0, 3.0, 0.5, 9.0)
    t = all_martingale_estimates(s, 1.0)
    for m in range(1, 5):
        assert t[m - 1] == pytest.approx(martingale_estimate(s, 1.0, m))


# -- confidence constructions -------------------------------------------------

def test_min_bound_single_point_clips():
    s = line_sample(0.0)
    est = martingale_upper_bound(s, 1.0, 0.5)
    assert est.value == 1.0
    assert est.vacuous


def test_min_bound_separated_clips():
    s = line_sample(0.0, 10.0, 20.0)
    est = martingale_upper_bound(s, 1.0, 0.1)
    assert est.value == 1.0 and est.vacuous


def test_min_bound_identical_interior_minimizer():
    n, delta = 100, 0.1
    s = line_sample(*([0.0] * n))
    est = martingale_upper_bound(s, 1.0, delta)
    # Independent scan over the definition.
    best = min(
        ((1.0 / n if m == n else 0.0) + math.sqrt(math.log(n / delta) / (2 * m)))
        for m in range(1, n + 1))
    assert est.value == pytest.approx(best)
    assert 1 < est.m < n


def test_sequential_bounds_per_window():
    n, delta = 40, 0.2
    s = make_sample(np.random.default_rng(3).uniform(0, 1, (n, 1)))
    t, slack, est = sequential_bounds(s, 0.05, delta)
    assert t.tolist() == all_martingale_estimates(s, 0.05).tolist()
    assert slack.tolist() == pytest.approx(
        [math.sqrt(math.log(n / delta) / (2 * m)) for m in range(1, n + 1)])
    assert est == martingale_upper_bound(s, 0.05, delta)
    assert est.value == min(1.0, t[est.m - 1] + slack[est.m - 1])
    assert est.radius == slack[est.m - 1]
    # Built once per (n, delta) and shared, so no caller may write to it.
    assert sequential_bounds(s, 0.5, delta)[1] is slack
    with pytest.raises(ValueError):
        slack[0] = 0.0


def test_gt_interval_formula():
    s = line_sample(*np.arange(300, dtype=float))
    est = good_turing_interval(s, 0.5, 0.1)
    assert est.radius == pytest.approx(1 / 300 + math.sqrt(3 / 30), rel=1e-12)
    assert not est.vacuous

    small = line_sample(0.0, 1.0, 2.0)
    tiny = good_turing_interval(small, 0.5, 0.01)
    assert tiny.radius > 1
    assert tiny.vacuous


def test_gt_interval_large_n():
    s = make_sample(np.arange(10_000, dtype=float)[:, None])
    est = good_turing_interval(s, 0.25, 0.5)
    assert est.radius == pytest.approx(1e-4 + math.sqrt(3 / 5000), rel=1e-12)


def test_net_bound_formula_and_validation():
    n = 100
    s = line_sample(*([5.0] * n))
    net = farthest_first_net(s, 0.5)
    est = net_missing_mass_bound(s, 0.5, net, 0.1)
    assert est.m == 1
    assert est.value == pytest.approx(0.01 + math.sqrt(math.log(1000) / 100))

    with pytest.raises(InvalidNetError):
        net_missing_mass_bound(line_sample(0.0, 10.0), 1.0, [0], 0.1)


def test_net_bound_fully_separated_vacuous():
    s = line_sample(0.0, 10.0, 20.0)
    net = farthest_first_net(s, 1.0)
    est = net_missing_mass_bound(s, 1.0, net, 0.1)
    assert est.value == 1.0 and est.vacuous


def test_subsample_slack_values():
    assert subsample_supremum_slack(100, 100, 0.1) == 0.0
    assert subsample_supremum_slack(100, 50, 0.1) == pytest.approx(
        math.sqrt(math.log(1000)))
    assert subsample_supremum_slack(100, 99, 0.1) == pytest.approx(
        math.sqrt(math.log(1000) / 99))
    with pytest.raises(ValueError):
        subsample_supremum_slack(10, 11, 0.1)


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(value=1.5, method="good_turing")
    with pytest.raises(ValueError):
        Estimate(value=0.5, method="good_turing", delta=1.0)
    with pytest.raises(ValueError):
        good_turing_interval(line_sample(0.0), 1.0, 0.0)
