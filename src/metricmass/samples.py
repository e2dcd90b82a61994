"""Ordered samples with cached pairwise distances, nets and separation tests.

Sample order is preserved exactly as ingested; the sequential estimators in
:mod:`metricmass.estimators` depend on it.  Pairwise distances are cached
eagerly at construction for samples up to ``EAGER_CACHE_MAX`` points and on
first use above that.

Each sample also computes, once, two radius-free summaries of its distances:
every point's distance to its nearest other point and to its nearest
earlier point in sample order.  They are filled in one row-blocked pass over
the cached matrix on first use, so the Good-Turing estimate and the escape
indicators at any further radius cost O(n), and all radii of a sweep share
that one pass.  The diameter is cached the same way.
"""
from __future__ import annotations

import csv
import json

import numpy as np

from .spaces import (
    DISCRETE,
    EUCLIDEAN,
    LP,
    PRECOMPUTED,
    SCALED_INDICATOR,
    MetricSpace,
    discrete,
    euclidean,
    precomputed,
)

EAGER_CACHE_MAX = 4096

# Elements per row block of the summary pass, which bounds its temporaries.
SUMMARY_BLOCK_ELEMENTS = 1 << 20


class InvalidNetError(ValueError):
    """A claimed r-net fails the separation or coverage requirement."""


class Sample:
    """An ordered iid sample of points from one space.

    Immutable after construction apart from the lazily filled distance cache
    and the summaries derived from it.
    ``atom_indices`` carries optional provenance for samples generated from a
    finite-support distribution (indices into its atom list), which the
    oracles use for fast exact computations.
    """

    def __init__(self, points, space: MetricSpace, atom_indices=None,
                 eager_cache_max: int = EAGER_CACHE_MAX):
        self.space = space
        self.points = space.as_points(points)
        self.atom_indices = None if atom_indices is None else np.asarray(atom_indices, dtype=int)
        self._distances: np.ndarray | None = None
        self._clear_summaries()
        if self.n <= eager_cache_max:
            self._distances = space.pairwise_distances(self.points)

    def _clear_summaries(self) -> None:
        self._nearest: np.ndarray | None = None
        self._earlier: np.ndarray | None = None
        self._diameter: float | None = None

    @property
    def n(self) -> int:
        return len(self.points)

    def distance_matrix(self) -> np.ndarray:
        if self._distances is None:
            self._distances = self.space.pairwise_distances(self.points)
        return self._distances

    def distance(self, i: int, j: int) -> float:
        return float(self.distance_matrix()[i, j])

    def diameter(self) -> float:
        if self._diameter is None:
            self._diameter = float(self.distance_matrix().max()) if self.n else 0.0
        return self._diameter

    def nearest_distances(self) -> np.ndarray:
        """Per point, the distance to its nearest other sample point (inf
        for a single point).  Read-only."""
        if self._nearest is None:
            self._summarize()
        return self._nearest

    def earlier_distances(self) -> np.ndarray:
        """Per point, the distance to its nearest strictly earlier sample
        point in sample order (inf for the first point).  Read-only."""
        if self._earlier is None:
            self._summarize()
        return self._earlier

    def _summarize(self) -> None:
        # Row-wise minima only: a precomputed matrix is only allclose-
        # symmetric, and the estimators read row i as point i's distances.
        d = self.distance_matrix()
        n = self.n
        nearest = np.empty(n)
        earlier = np.empty(n)
        step = max(1, SUMMARY_BLOCK_ELEMENTS // max(n, 1))
        cols = np.arange(n)
        for start in range(0, n, step):
            rows = cols[start:start + step]
            block = d[start:start + step].copy()
            block[rows - start, rows] = np.inf
            nearest[rows] = block.min(axis=1)
            block[cols[None, :] > rows[:, None]] = np.inf
            earlier[rows] = block.min(axis=1)
        nearest.flags.writeable = False
        earlier.flags.writeable = False
        self._nearest, self._earlier = nearest, earlier

    def subsample(self, indices) -> "Sample":
        """Sub-sample in the given order; indices define the new ordering."""
        idx = np.asarray(indices, dtype=int)
        sub = Sample.__new__(Sample)
        sub.space = self.space
        sub.points = self.points[idx]
        sub.atom_indices = None if self.atom_indices is None else self.atom_indices[idx]
        sub._distances = None
        sub._clear_summaries()  # earlier distances depend on the new order
        if self._distances is not None:
            sub._distances = self._distances[np.ix_(idx, idx)]
        return sub

    def with_distances_scaled(self, factor: float) -> "Sample":
        """A copy whose every pairwise distance is multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        sp = self.space
        if sp.kind in (EUCLIDEAN, LP):
            return Sample(self.points * factor, sp, atom_indices=self.atom_indices)
        if sp.kind == SCALED_INDICATOR:
            return Sample(self.points * factor ** sp.p, sp, atom_indices=self.atom_indices)
        if sp.kind == PRECOMPUTED:
            scaled_space = precomputed(sp.matrix * factor)
            return Sample(self.points, scaled_space, atom_indices=self.atom_indices)
        raise ValueError(f"distances of a {sp.kind} space cannot be rescaled")


def infer_space(points) -> MetricSpace:
    arr = np.asarray(points)
    if arr.dtype.kind in "fiu":
        arr = np.atleast_2d(np.asarray(points, dtype=float))
        return euclidean(arr.shape[1])
    return discrete()


def make_sample(points, space: MetricSpace | None = None, **kw) -> Sample:
    if space is None:
        space = infer_space(points)
    return Sample(points, space, **kw)


# -- ingestion -------------------------------------------------------------

def _looks_numeric(row) -> bool:
    try:
        [float(v) for v in row]
        return True
    except ValueError:
        return False


def sample_from_csv(path, space: MetricSpace | None = None) -> Sample:
    """One point per row.  Numeric columns are coordinates; a single
    non-numeric column is read as categorical symbols under the discrete
    metric.  An optional header row is skipped when it does not parse as
    numbers but the rest of the file does."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if len(rows) > 1 and not _looks_numeric(rows[0]) and _looks_numeric(rows[1]):
        rows = rows[1:]
    if _looks_numeric(rows[0]):
        pts = np.array([[float(v) for v in row] for row in rows])
        return make_sample(pts, space)
    if any(len(row) != 1 for row in rows):
        raise ValueError(f"{path}: categorical samples need exactly one symbol per row")
    return make_sample(np.array([row[0] for row in rows]), space or discrete())


def sample_from_json(path, space: MetricSpace | None = None) -> Sample:
    """Either a JSON array of coordinate arrays, or an object
    ``{"matrix": [[...]]}`` declaring a precomputed distance matrix whose
    points are the row indices."""
    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        if "matrix" not in payload:
            raise ValueError(f"{path}: expected a 'matrix' key")
        sp = precomputed(np.asarray(payload["matrix"], dtype=float))
        return Sample(np.arange(sp.matrix.shape[0]), sp)
    pts = np.asarray(payload, dtype=float)
    return make_sample(np.atleast_2d(pts), space)


def sample_to_csv(sample: Sample, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if sample.space.kind == DISCRETE:
            for s in sample.points:
                writer.writerow([s])
        else:
            for p in np.atleast_2d(sample.points if sample.points.ndim > 1
                                   else sample.points[:, None]):
                writer.writerow([repr(float(v)) for v in np.atleast_1d(p)])


# -- separation and nets ----------------------------------------------------

def is_r_separated(sample: Sample, indices, r: float) -> bool:
    """True iff every distinct pair of the sub-sample is at distance
    strictly greater than r.  A single index is vacuously separated."""
    idx = np.asarray(indices, dtype=int)
    if len(np.unique(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    if idx.size <= 1:
        return True
    d = sample.distance_matrix()[np.ix_(idx, idx)]
    iu = np.triu_indices(len(idx), k=1)
    return bool((d[iu] > r).all())


def farthest_first_net(sample: Sample, r: float, seed_index: int = 0) -> list[int]:
    """Greedy maximal r-separated subset covering the sample.

    Starting from the seed, repeatedly add the point farthest from the
    current net (lowest index on ties) until that farthest distance is at
    most r.  The result is r-separated and every sample point lies within r
    of some net point.
    """
    if sample.n < 1:
        raise ValueError("sample must be non-empty")
    if not 0 <= seed_index < sample.n:
        raise ValueError("seed index out of range")
    if r < 0:
        raise ValueError("radius must be non-negative")
    dmat = sample.distance_matrix()
    net = [seed_index]
    dist_to_net = dmat[seed_index].copy()
    while True:
        far = int(np.argmax(dist_to_net))
        if dist_to_net[far] <= r:
            return net
        net.append(far)
        np.minimum(dist_to_net, dmat[far], out=dist_to_net)


def verify_net(sample: Sample, net, r: float) -> None:
    """Raise InvalidNetError unless ``net`` is r-separated and covers the sample."""
    idx = np.asarray(net, dtype=int)
    if idx.size == 0:
        raise InvalidNetError("net is empty")
    if not is_r_separated(sample, idx, r):
        raise InvalidNetError("net is not r-separated")
    cover = sample.distance_matrix()[:, idx].min(axis=1)
    if (cover > r).any():
        raise InvalidNetError("net does not cover the sample at radius r")
