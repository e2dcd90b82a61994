"""Exact minimum enclosing ball for small euclidean point sets.

The optimal ball is the circumsphere of some affinely independent support
subset of at most D+1 points, with center in that subset's affine hull.
For the point counts that arise here (local-separation search is capped at
single digits) enumerating every subset is both simple and fast, and it is
numerically transparent: each candidate solves one small positive-definite
system, and the smallest candidate that encloses all points is the answer.

The h search enumerates only in three or more dimensions.  In one or two, a
set fits in a closed r-ball exactly when each of its triples does (Helly's
theorem for the r-balls around the points), and :func:`three_point_radius`
decides a triple from its pairwise distances alone.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

MAX_POINTS = 16
_ENCLOSE_RTOL = 1e-9
_ENCLOSE_ATOL = 1e-12


def minimum_enclosing_ball(points) -> tuple[np.ndarray, float]:
    """Center and radius of the smallest ball containing all points.

    Accepts an (n, D) array with n <= 16.  Exact up to floating point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = pts.shape
    if n == 0:
        raise ValueError("need at least one point")
    if n > MAX_POINTS:
        raise ValueError(f"exact enumeration supports at most {MAX_POINTS} points")
    if n == 1:
        return pts[0].copy(), 0.0

    best_center = None
    best_radius = np.inf
    max_support = min(n, dim + 1)
    for size in range(1, max_support + 1):
        for subset in combinations(range(n), size):
            center, radius = _circumsphere(pts[list(subset)])
            if center is None or radius >= best_radius:
                continue
            dists = np.linalg.norm(pts - center, axis=1)
            if dists.max() <= radius * (1.0 + _ENCLOSE_RTOL) + _ENCLOSE_ATOL:
                best_center = center
                best_radius = max(radius, float(dists.max()))
    if best_center is None:
        # Every candidate was rejected as degenerate; fall back to the
        # centroid ball, which encloses but may overestimate the radius.
        best_center = pts.mean(axis=0)
        best_radius = float(np.linalg.norm(pts - best_center, axis=1).max())
    return best_center, float(best_radius)


def meb_radius(points) -> float:
    return minimum_enclosing_ball(points)[1]


def three_point_radius(a: float, b: float, c: float) -> float:
    """Minimum enclosing ball radius of three points from their pairwise
    distances alone (valid in euclidean space of any dimension, since three
    points span a plane).  Right and obtuse triangles are covered by the
    longest side's diameter ball; acute ones by the circumradius."""
    a, b, c = sorted((a, b, c), reverse=True)
    if a * a >= b * b + c * c:
        return a / 2.0
    s = 0.5 * (a + b + c)
    area_sq = s * (s - a) * (s - b) * (s - c)
    if area_sq <= 0.0:
        return a / 2.0
    return a * b * c / (4.0 * math.sqrt(area_sq))


def _circumsphere(pts: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Equidistant point to all of ``pts`` within their affine hull.

    Returns (None, inf) when the points are affinely dependent; a
    non-degenerate support subset always exists, so skipping is safe.
    """
    if len(pts) == 1:
        return pts[0].copy(), 0.0
    v = pts[1:] - pts[0]
    gram = v @ v.T
    try:
        alpha = np.linalg.solve(gram, 0.5 * np.diag(gram))
    except np.linalg.LinAlgError:
        return None, np.inf
    offset = v.T @ alpha
    center = pts[0] + offset
    radius = float(np.linalg.norm(offset))
    # Reject solutions poisoned by near-singular systems.
    d = np.linalg.norm(pts - center, axis=1)
    scale = max(radius, 1.0)
    if not np.allclose(d, radius, rtol=1e-6, atol=1e-9 * scale):
        return None, np.inf
    return center, radius
