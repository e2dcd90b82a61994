import math

import numpy as np
import pytest

from metricmass.bounds import (
    gt_error_bounds,
    tail_bound_G,
    tail_bound_Mhat,
    variance_bound_G,
    variance_bound_Mhat,
)


def test_variance_G_values():
    assert variance_bound_G(1.0, 100).value == pytest.approx(0.04)
    rep = variance_bound_G(1.0, 16)
    assert rep.value == pytest.approx(0.25)
    assert rep.vacuous
    assert variance_bound_G(4.0, 1000).value == pytest.approx(0.01)


def test_variance_G_small_n_warns_but_computes():
    rep = variance_bound_G(1.0, 8)
    assert rep.warnings
    assert rep.value == pytest.approx(0.5)


def test_variance_G_rejects_subunit_eh():
    # NaN and inf used to pass as E_h, with NaN or inf bounds marked not
    # vacuous.
    for e_h in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="E_h must be finite and at least 1"):
            variance_bound_G(e_h, 100)


def test_variance_Mhat_values():
    rep = variance_bound_Mhat(1.0, 101)
    expected = (2 + 4 * (math.e - 2) * (math.log(101) + 1)) / 100
    assert rep.value == pytest.approx(expected)
    assert rep.value == pytest.approx(0.1813, abs=2e-4)

    big = variance_bound_Mhat(1.0, 10 ** 6)
    assert big.value == pytest.approx(4.46e-5, rel=2e-3)


def test_tail_G_values():
    rep = tail_bound_G(1.0, 100, 1.0)
    assert rep.value == pytest.approx(12 * math.sqrt(0.02) + 2.3)
    assert rep.vacuous  # threshold ~ 4.0 for a [0,1] quantity

    small_t = tail_bound_G(1.0, 100, 1e-9)
    assert small_t.value < 1e-3
    assert small_t.probability == 1.0

    big = tail_bound_G(1.0, 10 ** 6, 5.0)
    assert big.value == pytest.approx(0.1529, abs=2e-4)
    assert big.probability == pytest.approx(15 * math.exp(-5))


def test_tail_Mhat_values():
    rep = tail_bound_Mhat(1.0, 10 ** 6, 20.0)
    assert rep.value == pytest.approx(0.7937, abs=2e-4)
    assert rep.probability == pytest.approx(2e6 * math.exp(-20))
    assert not rep.vacuous

    vac = tail_bound_Mhat(1.0, 100, 1.0)
    assert vac.probability == 1.0
    assert vac.vacuous


def test_gt_error_bounds_values():
    var3, l23 = gt_error_bounds(3)
    assert var3.value == pytest.approx(1.0) and var3.vacuous
    assert l23.value == pytest.approx(math.sqrt(7 / 3)) and l23.vacuous

    var700, l2700 = gt_error_bounds(700)
    assert var700.value == pytest.approx(3 / 700)
    assert l2700.value == pytest.approx(0.1)

    _, l27 = gt_error_bounds(7)
    assert l27.value == pytest.approx(1.0)
    assert l27.vacuous


def test_monotone_in_parameters():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n1 = int(rng.integers(16, 5000))
        n2 = n1 + int(rng.integers(1, 5000))
        eh1 = float(rng.uniform(1, 20))
        eh2 = eh1 + float(rng.uniform(0, 20))
        t1 = float(rng.uniform(0.01, 10))
        t2 = t1 + float(rng.uniform(0, 10))
        assert variance_bound_G(eh1, n2).value <= variance_bound_G(eh1, n1).value
        assert variance_bound_G(eh2, n1).value >= variance_bound_G(eh1, n1).value
        assert variance_bound_Mhat(eh1, n2).value <= variance_bound_Mhat(eh1, n1).value
        assert tail_bound_G(eh1, n1, t2).value >= tail_bound_G(eh1, n1, t1).value
        assert tail_bound_G(eh1, n2, t1).value <= tail_bound_G(eh1, n1, t1).value
        assert tail_bound_Mhat(eh2, n1, t1).value >= tail_bound_Mhat(eh1, n1, t1).value
        assert tail_bound_G(eh1, n1, t2).probability <= tail_bound_G(eh1, n1, t1).probability
        assert gt_error_bounds(n2)[0].value <= gt_error_bounds(n1)[0].value


def test_reports_reproducible():
    a = tail_bound_Mhat(2.5, 333, 1.25)
    b = tail_bound_Mhat(2.5, 333, 1.25)
    assert a == b
    assert a.to_dict() == b.to_dict()


def test_t_must_be_positive():
    with pytest.raises(ValueError):
        tail_bound_G(1.0, 100, 0.0)
    with pytest.raises(ValueError):
        tail_bound_Mhat(1.0, 100, -1.0)


def test_mhat_bounds_need_two_points():
    # Both divide by n - 1; n = 1 used to raise ZeroDivisionError.
    for bound in (lambda: variance_bound_Mhat(1.0, 1), lambda: tail_bound_Mhat(1.0, 1, 1.0)):
        with pytest.raises(ValueError, match="at least 2"):
            bound()
    assert variance_bound_G(1.0, 1).value == 4.0
