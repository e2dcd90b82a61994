"""Independent brute-force oracles used to validate the library paths.

Everything here is deliberately written the slow, obvious way (explicit
loops, pairwise distance calls, grid searches) so that agreement with the
vectorized implementations is meaningful.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from itertools import combinations
from unittest import mock

import numpy as np

from metricmass import samples


def brute_good_turing(points, space, r):
    """Fraction of points farther than r from every other point, by loops."""
    n = len(points)
    isolated = 0
    for k in range(n):
        if all(space.distance(points[k], points[i]) > r
               for i in range(n) if i != k):
            isolated += 1
    return isolated / n


def brute_martingale(points, space, r, m):
    """Average escape indicator over the last m points, by loops."""
    n = len(points)
    total = 0
    for k in range(n - m, n):
        if all(space.distance(points[k], points[i]) > r for i in range(k)):
            total += 1
    return total / m


def dense_summaries(sample):
    """(nearest, earlier) distances per point, each from a masked copy of
    the whole distance matrix: the diagonal set to inf for the nearest
    distances, every j >= i for the earlier ones; row-wise minima."""
    d = sample.distance_matrix()
    others = d.copy()
    np.fill_diagonal(others, np.inf)
    earlier = np.where(np.tri(sample.n, k=-1, dtype=bool), d, np.inf)
    return others.min(axis=1), earlier.min(axis=1)


def dense_good_turing(sample, r):
    """Good-Turing estimate from a masked copy of the whole matrix."""
    if sample.n == 1:
        return 1.0
    d = sample.distance_matrix().copy()
    np.fill_diagonal(d, np.inf)
    return float(np.mean(d.min(axis=1) > r))


def dense_escape_indicators(sample, r):
    """Escape indicators from the whole matrix masked to j < i."""
    d = np.where(np.tri(sample.n, k=-1, dtype=bool), sample.distance_matrix(), np.inf)
    return (d.min(axis=1) > r).astype(float)


def triu_r_grid(sample, size=20):
    """Default radius grid from the upper triangle gathered by
    np.triu_indices."""
    d = sample.distance_matrix()
    vals = d[np.triu_indices(sample.n, k=1)]
    vals = vals[vals > 0]
    if len(vals) == 0:
        raise ValueError("sample has no positive pairwise distance; supply a grid")
    lo = float(np.percentile(vals, 1))
    hi = float(np.median(vals))
    if lo <= 0 or hi <= lo:
        raise ValueError("degenerate pairwise distances; supply a grid")
    return list(np.geomspace(lo, hi, size))


def dense_farthest_first_net(sample, r, seed_index=0):
    """Greedy farthest-first r-net, every row read from the whole matrix."""
    dmat = sample.distance_matrix()
    net = [seed_index]
    dist_to_net = dmat[seed_index].copy()
    while True:
        far = int(np.argmax(dist_to_net))
        if dist_to_net[far] <= r:
            return net
        net.append(far)
        np.minimum(dist_to_net, dmat[far], out=dist_to_net)


def dense_verify_net(sample, net, r):
    """Net check from the whole matrix: separation on the upper triangle of
    the net's submatrix, cover on a column gather of the net."""
    from metricmass.samples import InvalidNetError

    idx = np.asarray(net, dtype=int)
    if idx.size == 0:
        raise InvalidNetError("net is empty")
    if len(np.unique(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    d = sample.distance_matrix()
    if not (d[np.ix_(idx, idx)][np.triu_indices(idx.size, k=1)] > r).all():
        raise InvalidNetError("net is not r-separated")
    if (d[:, idx].min(axis=1) > r).any():
        raise InvalidNetError("net does not cover the sample at radius r")


def brute_missing_mass_finite(atom_points, weights, sample_points, space, r):
    """Sum of atom weights farther than r from every sample point."""
    mass = 0.0
    for a, w in zip(atom_points, weights):
        if all(space.distance(a, x) > r for x in sample_points):
            mass += w
    return mass


def scalar_cdf(spec, x):
    """CDF of a uniform-interval or scaled-indicator spec at one float."""
    if spec.kind == "uniform_interval":
        return float(np.clip((x - spec.a) / (spec.b - spec.a), 0.0, 1.0))
    return 0.0 if x < 0 else 1.0 - math.exp(-spec.rate * x)


def interval_coverage_loop(spec, points, r):
    """(mass covered by no ball, mass covered by exactly one) for a scalar
    spec, by a sweep over the sorted interval endpoints one at a time."""
    xs = np.asarray(points, dtype=float).reshape(-1)
    # The ball's coordinate half-width: |a - b|^(1/p) <= r iff |a - b| <= r^p.
    rho = r if spec.kind == "uniform_interval" else r ** spec.p
    pos = np.concatenate([xs - rho, xs + rho])
    delta = np.concatenate([np.ones(len(xs)), -np.ones(len(xs))])
    order = np.lexsort((-delta, pos))
    m0 = m1 = 0.0
    count = 0
    prev = None
    for i in order:
        p = float(pos[i])
        if prev is None:
            m0 += scalar_cdf(spec, p)
        elif p > prev:
            mass = scalar_cdf(spec, p) - scalar_cdf(spec, prev)
            if count == 0:
                m0 += mass
            elif count == 1:
                m1 += mass
        count += int(delta[i])
        prev = p
    m0 += 1.0 - scalar_cdf(spec, prev)
    return m0, m1


def mc_coverage_counts(spec, sample, r, n_test, seed):
    """Number of closed sample balls covering each of n_test fresh draws,
    drawn from the generator seeded by ``seed`` in the oracles' chunks of
    8192, so that the draws are the oracles' own."""
    rng = np.random.default_rng(seed)
    counts = []
    for start in range(0, n_test, 8192):
        pts = spec.sample(min(8192, n_test - start), rng)
        d = sample.space.cross_distances(pts, sample.points)
        counts.append((d <= r).sum(axis=1))
    return np.concatenate(counts)


def h_grid_oracle(points, r, cap=8, pitch_rel=0.01, accept_tol=None):
    """Exhaustive local-separation search with a fine-grid center scan.

    Enumerates every subset up to ``cap``, requires strict pairwise
    separation, and certifies locality by finding a grid center with pitch
    pitch_rel * r whose farthest subset point is within r * (1 + accept_tol)
    (accept_tol defaults to the pitch).  With accept_tol=0 the oracle only
    counts sets with a genuine radius-r witness, so it never overcounts;
    with the default it never undercounts.  Size-two subsets are accepted
    directly via their midpoint.
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    if accept_tol is None:
        accept_tol = pitch_rel
    r_tol = r * (1.0 + accept_tol)
    pitch = r * pitch_rel
    coarse = r * 0.1
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    best = 1
    for size in range(2, min(cap, n) + 1):
        found = False
        for subset in combinations(range(n), size):
            idx = list(subset)
            sub_d = d[np.ix_(idx, idx)]
            iu = np.triu_indices(size, k=1)
            if not (sub_d[iu] > r).all():
                continue
            if not (sub_d[iu] <= 2.0 * r_tol).all():
                continue
            sub = pts[idx]
            if size == 2:
                if sub_d[0, 1] <= 2.0 * r_tol:
                    found = True
                    break
                continue
            lo = sub.max(axis=0) - r_tol
            hi = sub.min(axis=0) + r_tol
            if (lo > hi).any():
                continue
            # Cheap lower bound: even the box point closest to the worst
            # subset point may already be too far.
            nearest = np.clip(sub, lo, hi)
            if np.linalg.norm(sub - nearest, axis=1).max() > r_tol:
                continue
            if _grid_hit(sub, lo, hi, coarse, r_tol):
                found = True
                break
            if _grid_hit(sub, lo, hi, pitch, r_tol):
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def _grid_hit(sub, lo, hi, pitch, r_tol, chunk=200_000):
    axes = [np.arange(l, h + pitch / 2.0, pitch) for l, h in zip(lo, hi)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, sub.shape[1])
    for start in range(0, len(mesh), chunk):
        block = mesh[start:start + chunk]
        dist = np.linalg.norm(block[:, None, :] - sub[None, :, :], axis=2).max(axis=1)
        if (dist <= r_tol).any():
            return True
    return False


def window_graph(sample, r):
    """Adjacency of r < d <= 2r over the sample, closed at 2r."""
    d = sample.distance_matrix()
    adj = (d > r) & (d <= 2.0 * r)
    np.fill_diagonal(adj, False)
    return adj


def reference_h_exact(sample, r, cap=8):
    """h by a depth-first search that extends feasible subsets in index
    order, pruned only by subset size plus remaining candidates; returns
    (value, certified, method, witness)."""
    from metricmass.meb import meb_radius, three_point_radius

    if sample.space.kind == "discrete":
        return 1, "exact", "brute_force", (0,)
    d = sample.distance_matrix()
    adj = window_graph(sample, r)
    euclidean = sample.space.kind == "euclidean"
    r_feas = r * (1.0 + 1e-9)

    def feasible(subset):
        if not euclidean:
            return bool((d[:, subset].max(axis=1) <= r).any())
        if len(subset) <= 2:
            return True
        if len(subset) == 3:
            i, j, l = subset
            return three_point_radius(d[i, j], d[i, l], d[j, l]) <= r_feas
        return meb_radius(sample.points[subset]) <= r_feas

    best = [0]
    capped = False

    def extend(subset, candidates):
        nonlocal best, capped
        if len(subset) > len(best):
            best = list(subset)
        if len(subset) >= cap:
            capped = True
            return
        for pos, v in enumerate(candidates):
            if len(subset) + (len(candidates) - pos) <= len(best):
                return
            trial = subset + [int(v)]
            if not feasible(trial):
                continue
            rest = candidates[pos + 1:]
            extend(trial, rest[adj[v, rest]])
            if capped:
                return

    order = np.arange(sample.n)
    for v in order:
        if capped:
            break
        nbrs = order[order > v]
        extend([int(v)], nbrs[adj[v, nbrs]])
    if capped:
        return cap, "lower_bound", "brute_force", tuple(best)
    return len(best), "exact" if euclidean else "lower_bound", "brute_force", tuple(best)


def reference_max_clique(adj):
    """Maximum clique by branch and bound with a class-by-class greedy
    colouring bound, candidates held as index arrays."""
    n = adj.shape[0]
    if not adj.any():
        return [0]
    best = [int(np.argmax(adj.sum(axis=1)))]

    def color_bound(cands):
        order, col_of = [], []
        color = 0
        remaining = list(range(len(cands)))
        while remaining:
            color += 1
            nxt, picked = [], []
            for i in remaining:
                if all(not adj[cands[i], cands[j]] for j in picked):
                    picked.append(i)
                else:
                    nxt.append(i)
            order.extend(picked)
            col_of.extend([color] * len(picked))
            remaining = nxt
        return cands[np.array(order)], np.array(col_of)

    def expand(clique, cands):
        nonlocal best
        if len(cands) == 0:
            if len(clique) > len(best):
                best = list(clique)
            return
        ordered, colors = color_bound(np.sort(cands))
        for i in range(len(ordered) - 1, -1, -1):
            if len(clique) + colors[i] <= len(best):
                return
            v = int(ordered[i])
            expand(clique + [v], ordered[:i][adj[v, ordered[:i]]])

    expand([], np.arange(n))
    return best


def transport_w1_atoms(mu_positions, mu_weights, nu_positions, nu_weights):
    """W1 between two atomic measures on the line, by CDF area over a mesh."""
    xs = np.unique(np.concatenate([mu_positions, nu_positions]))
    total = 0.0
    for left, right in zip(xs[:-1], xs[1:]):
        f_mu = mu_weights[np.asarray(mu_positions) <= left].sum()
        f_nu = nu_weights[np.asarray(nu_positions) <= left].sum()
        total += abs(f_mu - f_nu) * (right - left)
    return total


@contextmanager
def pool_threads(threads):
    """Run every streamed pass, however small, on ``threads`` pool threads
    (the calling thread alone for 1)."""
    with mock.patch.object(samples, "THREADED_MIN_BLOCKS", 0), \
            mock.patch.object(samples, "_cores", lambda: threads):
        yield
