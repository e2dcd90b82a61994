from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricmass.meb import meb_radius, minimum_enclosing_ball, three_point_radius
from metricmass.samples import make_sample
from metricmass.separation import MEB_FEASIBILITY_RTOL

from helpers import dense_matrix


def test_single_point():
    center, radius = minimum_enclosing_ball([[1.0, 2.0]])
    assert radius == 0.0
    assert np.allclose(center, [1.0, 2.0])


def test_two_points_midpoint():
    center, radius = minimum_enclosing_ball([[0.0, 0.0], [2.0, 0.0]])
    assert radius == pytest.approx(1.0)
    assert np.allclose(center, [1.0, 0.0])


def test_equilateral_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    center, radius = minimum_enclosing_ball(pts)
    assert radius == pytest.approx(1.0 / np.sqrt(3))
    assert np.allclose(center, pts.mean(axis=0), atol=1e-9)


def test_obtuse_triangle_uses_diameter():
    # One point well inside the two-point ball of the far pair.
    pts = [[0.0, 0.0], [4.0, 0.0], [2.0, 0.1]]
    _, radius = minimum_enclosing_ball(pts)
    assert radius == pytest.approx(2.0, abs=1e-9)


def test_regular_simplex_3d():
    pts = np.eye(3)
    center, radius = minimum_enclosing_ball(pts)
    assert np.allclose(center, np.full(3, 1 / 3), atol=1e-9)
    assert radius == pytest.approx(np.sqrt(2 / 3))


def test_high_dimension_small_set():
    # Two orthonormal vectors in R^6: circumradius sqrt(2)/2.
    pts = np.zeros((2, 6))
    pts[0, 0] = 1.0
    pts[1, 1] = 1.0
    assert meb_radius(pts) == pytest.approx(np.sqrt(2) / 2)


def test_duplicate_points():
    pts = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
    center, radius = minimum_enclosing_ball(pts)
    assert radius == 0.0


def test_enclosure_and_minimality_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 5))
        pts = rng.normal(size=(k, dim))
        center, radius = minimum_enclosing_ball(pts)
        dists = np.linalg.norm(pts - center, axis=1)
        assert dists.max() <= radius * (1 + 1e-8) + 1e-12
        # Minimality: beat any random alternative center.
        for _ in range(20):
            alt = center + rng.normal(scale=0.2, size=dim)
            alt_radius = np.linalg.norm(pts - alt, axis=1).max()
            assert alt_radius >= radius - 1e-9


def test_grid_cross_check_2d():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = rng.uniform(size=(5, 2))
        _, radius = minimum_enclosing_ball(pts)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        xs = np.linspace(lo[0], hi[0], 60)
        ys = np.linspace(lo[1], hi[1], 60)
        grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
        grid_best = np.linalg.norm(
            grid[:, None, :] - pts[None, :, :], axis=2).max(axis=1).min()
        assert radius <= grid_best + 1e-9
        assert radius >= grid_best - 0.05  # grid resolution slack


@given(st.integers(1, 2), st.data())
@settings(max_examples=300)
def test_planar_triangle_test_agrees_with_meb(dim, data):
    # Helly in the plane: points fit in a closed r-ball exactly when each
    # triple does.  On a lattice, with r a pair distance or half of one,
    # enclosing radii land exactly on r, so the tie tolerance is exercised.
    lattice = list(product(range(-3, 4) if dim == 1 else range(-2, 3), repeat=dim))
    pts = np.array(data.draw(st.lists(st.sampled_from(lattice), min_size=4, max_size=6,
                                      unique=True)), dtype=float)
    d = dense_matrix(make_sample(pts))
    pairs = d[np.triu_indices(len(pts), k=1)]
    r = data.draw(st.sampled_from(sorted(set(pairs.tolist()) | set((pairs / 2).tolist()))))
    r_feas = r * (1.0 + MEB_FEASIBILITY_RTOL)
    triples = all(three_point_radius(d[i, j], d[i, l], d[j, l]) <= r_feas
                  for i, j, l in combinations(range(len(pts)), 3))
    assert triples == (meb_radius(pts) <= r_feas)
