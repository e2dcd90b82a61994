"""Ordered samples with streamed pairwise distances, nets and separation
tests.

Sample order is preserved exactly as ingested; the sequential estimators in
:mod:`metricmass.estimators` depend on it.

Distances are streamed in row blocks of at most ``SUMMARY_BLOCK_ELEMENTS``
entries, each computed by the space's kernel.  The time is still O(n^2),
but the memory is O(n * block).  The matrix itself is built only on request, by
:meth:`Sample.distance_matrix` (the h search in :mod:`metricmass.separation`
reads it).

Each sample also computes, once, two radius-free summaries of its distances:
every point's distance to its nearest other point and to its nearest
earlier point in sample order.  One blocked pass over the upper triangle,
d(i, j) with i < j, fills them with the diameter on first use: every kernel
is exactly symmetric, so column j's minimum is point j's earlier distance,
and a point's nearest distance is the smaller of that and the minimum of its
own row.  The same pass can also pack the positive distances it reads, which
:meth:`Sample.upper_distances` returns for the default radius grid.  So the
grid, the diameter, the Good-Turing estimate and the escape indicators at
every radius share one pass over half the pairs, and each further radius
costs O(n).
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

# Elements per row block of distances, which bounds the temporaries of
# every blocked pass.
SUMMARY_BLOCK_ELEMENTS = 1 << 20
# Rows per block of the upper-triangle pass.  Each block also computes the
# square below its part of the diagonal and discards it; short blocks keep
# that waste near n * SUMMARY_BLOCK_ROWS / 2 entries in all.
SUMMARY_BLOCK_ROWS = 64


class InvalidNetError(ValueError):
    """A claimed r-net fails the separation or coverage requirement."""


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices cutting ``rows`` rows of ``width`` entries each into blocks of
    at most ``SUMMARY_BLOCK_ELEMENTS`` entries, one row at least."""
    step = max(1, SUMMARY_BLOCK_ELEMENTS // max(width, 1))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


class Sample:
    """An ordered iid sample of points from one space.

    Immutable after construction apart from the distance matrix, built on
    request, and the summaries, filled on first use.
    ``atom_indices`` carries optional provenance for samples generated from a
    finite-support distribution (indices into its atom list), which the
    oracles use for fast exact computations.
    """

    def __init__(self, points, space: MetricSpace, atom_indices=None):
        self.space = space
        self.points = space.as_points(points)
        self.atom_indices = None if atom_indices is None else np.asarray(atom_indices, dtype=int)
        self._distances: np.ndarray | None = None
        self._nearest: np.ndarray | None = None
        self._earlier: np.ndarray | None = None
        self._diameter: float | None = None

    @property
    def n(self) -> int:
        return len(self.points)

    def distance_matrix(self) -> np.ndarray:
        """The whole n x n matrix, built on the first call and kept."""
        if self._distances is None:
            self._distances = self.space.kernel(self.points, self.points)
        return self._distances

    def distance_rows(self, rows, cols=slice(None)) -> np.ndarray:
        """A new array of the distances from the points ``rows`` to the
        points ``cols`` (each a slice or an index array; every point by
        default), computed by the kernel whether or not the matrix is built."""
        return self.space.kernel(self.points[rows], self.points[cols])

    def distance(self, i: int, j: int) -> float:
        return float(self.distance_rows([i], [j])[0, 0])

    def diameter(self) -> float:
        if self._diameter is None:
            self._summarize()
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

    def upper_distances(self) -> np.ndarray:
        """A new array of the positive distances d(i, j), i < j, packed row
        by row.  The pass that packs them also fills the summaries, so
        asking for these first leaves nothing to compute for the rest."""
        return self._summarize(pack=True)

    def _summarize(self, pack: bool = False) -> np.ndarray:
        n = self.n
        row_min = np.empty(n)
        earlier = np.full(n, np.inf)
        diameter = 0.0
        packed = np.empty(n * (n - 1) // 2 if pack else 0)
        filled = 0
        step = max(1, min(SUMMARY_BLOCK_ROWS, SUMMARY_BLOCK_ELEMENTS // max(n, 1)))
        for start in range(0, n, step):
            rows = slice(start, min(start + step, n))
            block = self.distance_rows(rows, slice(start, None))
            diameter = max(diameter, float(block.max()))
            # In the block's leading square, the diagonal pairs each point
            # with itself, and the entries below it repeat pairs read above.
            square = block[:, :block.shape[0]]
            below = np.tri(block.shape[0], dtype=bool)
            if pack:
                square[below] = 0.0
                kept = block[block > 0]
                packed[filled:filled + kept.size] = kept
                filled += kept.size
                del kept
            square[below] = np.inf
            row_min[rows] = block.min(axis=1)
            np.minimum(earlier[start:], block.min(axis=0), out=earlier[start:])
            # Freed before the next block is computed.
            del block, square
        nearest = np.minimum(row_min, earlier)
        nearest.flags.writeable = False
        earlier.flags.writeable = False
        self._nearest, self._earlier, self._diameter = nearest, earlier, diameter
        return packed[:filled]

    def subsample(self, indices) -> "Sample":
        """Sub-sample in the given order; indices define the new ordering."""
        idx = np.asarray(indices, dtype=int)
        atoms = None if self.atom_indices is None else self.atom_indices[idx]
        return Sample(self.points[idx], self.space, atom_indices=atoms)

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
    positions = np.arange(idx.size)
    for rows in row_blocks(idx.size, idx.size):
        block = sample.distance_rows(idx[rows], idx)
        if not (block[positions[None, :] > positions[rows, None]] > r).all():
            return False
    return True


def farthest_first_traversal(sample: Sample, r: float,
                             seed_index: int = 0) -> tuple[list[int], np.ndarray]:
    """The farthest-first order from the seed, run until every sample point
    lies within r of it, and after each pick the covering radius of the
    picks so far (the largest distance from a sample point to its nearest
    pick).  Each step adds the point farthest from the picks, lowest index
    on ties.  At any radius s >= r the greedy s-net is the shortest prefix
    whose covering radius is at most s (:func:`net_prefix`)."""
    if sample.n < 1:
        raise ValueError("sample must be non-empty")
    if not 0 <= seed_index < sample.n:
        raise ValueError("seed index out of range")
    if r < 0:
        raise ValueError("radius must be non-negative")
    order = [seed_index]
    covering = []
    dist_to_net = sample.distance_rows(slice(seed_index, seed_index + 1))[0]
    while True:
        far = int(np.argmax(dist_to_net))
        covering.append(dist_to_net[far])
        if dist_to_net[far] <= r:
            return order, np.array(covering)
        order.append(far)
        np.minimum(dist_to_net, sample.distance_rows(slice(far, far + 1))[0],
                   out=dist_to_net)


def net_prefix(order: list[int], covering: np.ndarray, r: float) -> list[int]:
    """The greedy r-net from a traversal run down to at most r."""
    return order[:int(np.argmax(covering <= r)) + 1]


def farthest_first_net(sample: Sample, r: float, seed_index: int = 0) -> list[int]:
    """Greedy maximal r-separated subset covering the sample.

    Starting from the seed, repeatedly add the point farthest from the
    current net (lowest index on ties) until that farthest distance is at
    most r.  The result is r-separated and every sample point lies within r
    of some net point.
    """
    return farthest_first_traversal(sample, r, seed_index)[0]


def verify_net(sample: Sample, net, r: float) -> None:
    """Raise InvalidNetError unless ``net`` is r-separated and covers the sample."""
    idx = np.asarray(net, dtype=int)
    if idx.size == 0:
        raise InvalidNetError("net is empty")
    if not is_r_separated(sample, idx, r):
        raise InvalidNetError("net is not r-separated")
    for rows in row_blocks(sample.n, idx.size):
        if (sample.distance_rows(rows, idx).min(axis=1) > r).any():
            raise InvalidNetError("net does not cover the sample at radius r")
