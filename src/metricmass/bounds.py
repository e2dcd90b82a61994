"""Closed-form variance and tail bounds, evaluated as auditable reports.

Every evaluator is a pure formula over (n, E_h, t); reports echo their
inputs so downstream consumers can audit them.  The sample-size hypothesis
n >= 16 behind the h-dependent bounds is surfaced as a warning rather than
an error so small-n exploration stays possible.

A report is flagged vacuous when it cannot constrain its target: variance
bounds at or above 1/4 (the largest possible variance of a [0, 1] variable),
deviation thresholds at or above 1, and failure probabilities at or above 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .serialize import Record

VARIANCE_G = "variance_G"
VARIANCE_MHAT = "variance_Mhat"
TAIL_G = "tail_G"
TAIL_MHAT = "tail_Mhat"
GT_VARIANCE = "gt_variance"
GT_L2 = "gt_l2"

_MIN_N_HYPOTHESIS = 16


@dataclass(frozen=True)
class BoundReport(Record):
    kind: str
    inputs: dict
    value: float
    probability: float | None = None
    vacuous: bool = False
    warnings: tuple[str, ...] = field(default=())


def _check_eh(e_h: float) -> None:
    if e_h < 1.0:
        raise ValueError("E_h is at least 1 (h >= 1 on non-empty samples)")


def hypothesis_warnings(n: int) -> tuple[str, ...]:
    """The warning that n is below the hypothesis n >= 16 of the E_h-driven
    bounds, if it is; n must be positive."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n < _MIN_N_HYPOTHESIS:
        return (f"n = {n} is below the hypothesis n >= {_MIN_N_HYPOTHESIS}; "
                "the bound is reported but not guaranteed",)
    return ()


def _variance(kind: str, e_h: float, n: int, formula) -> BoundReport:
    """The variance ceiling ``formula()`` at (E_h, n), checked first."""
    _check_eh(e_h)
    warnings = hypothesis_warnings(n)
    value = formula()
    return BoundReport(kind, {"E_h": e_h, "n": n}, value,
                       vacuous=value >= 0.25, warnings=warnings)


def _tail(kind: str, e_h: float, n: int, t: float, formula) -> BoundReport:
    """The deviation threshold and failure probability ``formula()`` at
    (E_h, n, t), checked first."""
    _check_eh(e_h)
    if not t > 0:
        raise ValueError("t must be positive")
    warnings = hypothesis_warnings(n)
    threshold, probability = formula()
    return BoundReport(kind, {"E_h": e_h, "n": n, "t": t}, threshold,
                       probability=probability,
                       vacuous=threshold >= 1.0 or probability >= 1.0,
                       warnings=warnings)


def variance_bound_G(e_h: float, n: int) -> BoundReport:
    """Variance ceiling 2(1 + E_h)/n for the Good-Turing estimator."""
    return _variance(VARIANCE_G, e_h, n, lambda: 2.0 * (1.0 + e_h) / n)


def variance_bound_Mhat(e_h: float, n: int) -> BoundReport:
    """Variance ceiling (2 E_h + 4(e-2)(ln n + 1))/(n-1) for the
    conditional missing mass."""
    return _variance(VARIANCE_MHAT, e_h, n, lambda: (
        2.0 * e_h + 4.0 * (math.e - 2.0) * (math.log(n) + 1.0)) / (n - 1))


def tail_bound_G(e_h: float, n: int, t: float) -> BoundReport:
    """Deviation threshold 12 sqrt((1 + E_h) t / n) + 23 t / sqrt(n) for
    |G - E[G]|, exceeded with probability at most min(1, 15 e^-t)."""
    return _tail(TAIL_G, e_h, n, t, lambda: (
        12.0 * math.sqrt((1.0 + e_h) * t / n) + 23.0 * t / math.sqrt(n),
        min(1.0, 15.0 * math.exp(-t))))


def tail_bound_Mhat(e_h: float, n: int, t: float) -> BoundReport:
    """Deviation threshold 12 sqrt(E_h t / n) + 37 t / sqrt(n-1) for
    |M_hat - E[M_hat]|, exceeded with probability at most min(1, 2n e^-t)."""
    return _tail(TAIL_MHAT, e_h, n, t, lambda: (
        12.0 * math.sqrt(e_h * t / n) + 37.0 * t / math.sqrt(n - 1),
        min(1.0, 2.0 * n * math.exp(-t))))


def gt_error_bounds(n: int) -> tuple[BoundReport, BoundReport]:
    """Estimation-error ceilings for the Good-Turing estimator: variance of
    the smoothed gap at most 3/n and L2 distance to the conditional missing
    mass at most sqrt(7/n)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    variance = 3.0 / n
    l2 = math.sqrt(7.0 / n)
    return (
        BoundReport(GT_VARIANCE, {"n": n}, variance, vacuous=variance >= 0.25),
        BoundReport(GT_L2, {"n": n}, l2, vacuous=l2 >= 1.0),
    )


def bound_reports(e_h: float, n: int, ts) -> list[BoundReport]:
    """Every bound at (E_h, n) in report order: the two variance ceilings,
    the G and M_hat tails for each t in ``ts``, then the Good-Turing error
    ceilings."""
    reports = [variance_bound_G(e_h, n), variance_bound_Mhat(e_h, n)]
    for t in ts:
        reports.extend((tail_bound_G(e_h, n, t), tail_bound_Mhat(e_h, n, t)))
    reports.extend(gt_error_bounds(n))
    return reports
