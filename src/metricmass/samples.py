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
own row.  So the diameter, the Good-Turing estimate and the escape
indicators at every radius share one pass over half the pairs, and each
further radius costs O(n).

Order statistics of the positive distances d(i, j), i < j, such as the
default radius grid's percentile and median, take two passes and hold no
n(n - 1)/2 buffer.  The summary pass, run with ``histogram=True``, also
counts the positive distances per bucket, the bucket being the top 16 bits
of the float64 bit pattern; for non-negative doubles that order is the
order of the values.  :meth:`Sample.pair_order_statistics` then finds the
bucket of each wanted rank from the cumulative counts, and a second pass
keeps only the distances in those buckets and sorts them.
"""
from __future__ import annotations

import csv
import json

import numpy as np

from .spaces import MetricSpace, discrete, euclidean, precomputed

# Elements per row block of distances, which bounds the temporaries of
# every blocked pass.
SUMMARY_BLOCK_ELEMENTS = 1 << 20
# Rows per block of the upper-triangle pass.  Each block also computes the
# square below its part of the diagonal and discards it; short blocks keep
# that waste near n * SUMMARY_BLOCK_ROWS / 2 entries in all.
SUMMARY_BLOCK_ROWS = 64
# A distance's bucket is its float64 bit pattern shifted right by this many
# bits: the sign, the exponent and the four leading mantissa bits.
BUCKET_SHIFT = 48


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
        self._buckets: np.ndarray | None = None

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

    def positive_pair_count(self) -> int:
        """The number of pairs i < j at a positive distance."""
        return int(self._bucket_counts().sum())

    def pair_order_statistics(self, ranks) -> np.ndarray:
        """The positive distances d(i, j), i < j, at the given ranks (0 the
        smallest), one per rank, by a pass that keeps only the distances in
        the ranks' buckets."""
        counts = self._bucket_counts()
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size and not 0 <= ranks.min() <= ranks.max() < counts.sum():
            raise IndexError("rank out of range of the positive pair distances")
        ends = np.cumsum(counts)
        buckets = np.searchsorted(ends, ranks, side="right")
        wanted = np.unique(buckets)
        keep = np.zeros(counts.size, dtype=bool)
        keep[wanted] = True
        values = np.empty(int(counts[wanted].sum()))
        filled = 0
        for _, block in self._upper_blocks():
            found = block[keep[block.view(np.int64) >> BUCKET_SHIFT]]
            found = found[found > 0]
            values[filled:filled + found.size] = found
            filled += found.size
            del block
        values.sort()
        # Each wanted bucket's values are a run of ``values``; a rank's
        # position is its offset in its bucket plus the runs before it.
        runs = np.cumsum(counts[wanted]) - counts[wanted]
        offsets = ranks - (ends[buckets] - counts[buckets])
        return values[runs[np.searchsorted(wanted, buckets)] + offsets]

    def _bucket_counts(self) -> np.ndarray:
        if self._buckets is None:
            self._summarize(histogram=True)
        return self._buckets

    def _upper_blocks(self):
        """(start, block) per row block of the upper triangle: the
        distances from the rows start:start + len(block) to every point
        from start on.  The diagonal of the block's leading square and the
        entries below it, which pair a point with itself or repeat a pair
        read above, are set to zero."""
        n = self.n
        step = max(1, min(SUMMARY_BLOCK_ROWS, SUMMARY_BLOCK_ELEMENTS // max(n, 1)))
        for start in range(0, n, step):
            block = self.distance_rows(slice(start, min(start + step, n)), slice(start, None))
            height = block.shape[0]
            block[:, :height][np.tri(height, dtype=bool)] = 0.0
            yield start, block
            # Freed before the next block is computed.
            del block

    def _summarize(self, histogram: bool = False) -> None:
        n = self.n
        row_min = np.empty(n)
        earlier = np.full(n, np.inf)
        diameter = 0.0
        counts = np.zeros(1 << (63 - BUCKET_SHIFT), dtype=np.int64) if histogram else None
        for start, block in self._upper_blocks():
            top = float(block.max())
            if not np.isfinite(top):
                raise ValueError("pairwise distances must be finite")
            diameter = max(diameter, top)
            if histogram:
                counts += np.bincount((block.view(np.int64) >> BUCKET_SHIFT).ravel(),
                                      minlength=counts.size)
                # Zeros land in bucket 0 with the smallest subnormals.
                counts[0] -= block.size - np.count_nonzero(block)
            height = block.shape[0]
            block[:, :height][np.tri(height, dtype=bool)] = np.inf
            row_min[start:start + height] = block.min(axis=1)
            np.minimum(earlier[start:], block.min(axis=0), out=earlier[start:])
            del block
        nearest = np.minimum(row_min, earlier)
        nearest.flags.writeable = False
        earlier.flags.writeable = False
        self._nearest, self._earlier, self._diameter = nearest, earlier, diameter
        if histogram:
            counts.flags.writeable = False
            self._buckets = counts

    def subsample(self, indices) -> "Sample":
        """Sub-sample in the given order; indices define the new ordering."""
        idx = np.asarray(indices, dtype=int)
        atoms = None if self.atom_indices is None else self.atom_indices[idx]
        return Sample(self.points[idx], self.space, atom_indices=atoms)

    def with_distances_scaled(self, factor: float) -> "Sample":
        """A copy whose every pairwise distance is multiplied by ``factor``."""
        points, space = self.space.scaled(self.points, factor)
        return Sample(points, space, atom_indices=self.atom_indices)


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
    non-numeric column, or any single column under a declared discrete
    space, is read as categorical symbols under the discrete metric.  An
    optional header row is skipped when it does not parse as numbers but
    the rest of the file does."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if len(rows) > 1 and not _looks_numeric(rows[0]) and _looks_numeric(rows[1]):
        rows = rows[1:]
    if _looks_numeric(rows[0]) and space != discrete():
        pts = np.array([[float(v) for v in row] for row in rows])
        return make_sample(pts, space)
    if any(len(row) != 1 for row in rows):
        raise ValueError(f"{path}: categorical samples need exactly one symbol per row")
    return make_sample(np.array([row[0] for row in rows]), space or discrete())


def sample_from_json(path, space: MetricSpace | None = None) -> Sample:
    """Either a JSON array of coordinate arrays, or an object
    ``{"matrix": [[...]]}`` declaring a precomputed distance matrix whose
    points are the row indices; a matrix is its own space, so ``space``
    must then be None."""
    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        if "matrix" not in payload:
            raise ValueError(f"{path}: expected a 'matrix' key")
        if space is not None:
            raise ValueError("a distance matrix input takes no declared space")
        sp = precomputed(np.asarray(payload["matrix"], dtype=float))
        return Sample(np.arange(sp.matrix.shape[0]), sp)
    pts = np.asarray(payload, dtype=float)
    return make_sample(np.atleast_2d(pts), space)


def sample_to_csv(sample: Sample, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if sample.space == discrete():
            writer.writerows([s] for s in sample.points)
        else:
            rows = sample.points if sample.points.ndim > 1 else sample.points[:, None]
            writer.writerows([repr(float(v)) for v in row] for row in rows)


# -- separation and nets ----------------------------------------------------

def is_r_separated(sample: Sample, indices, r: float) -> bool:
    """True iff every distinct pair of the sub-sample is at distance
    strictly greater than r.  A single index is vacuously separated."""
    idx = np.asarray(indices, dtype=int)
    if len(np.unique(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    return bool((sample.subsample(idx).earlier_distances()[1:] > r).all())


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
    if not r >= 0:
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
    error = prefix_net_errors(sample, net, [(len(net), r)])[0]
    if error is not None:
        raise error


def prefix_net_errors(sample: Sample, order, checks) -> list[ValueError | None]:
    """For each (k, r) in ``checks``, the error :func:`verify_net` raises
    on the net ``order[:k]`` at radius r, or None if that net passes.

    One blocked pass over the distances from every point to ``order[:K]``,
    K the largest k, gives each checked prefix's covering radius: minima
    over the segments between consecutive checked lengths, then running
    minima over those few segments.  One pass over the upper triangle of
    ``order[:K]`` gives, per position, the distance to the nearest earlier
    pick, whose running minimum is each prefix's separation."""
    checks = [(int(k), float(r)) for k, r in checks]
    if any(not r >= 0 for _, r in checks):
        raise ValueError("radius must be non-negative")
    if any(k < 0 for k, _ in checks):
        raise ValueError("prefix length must be non-negative")
    width = max((k for k, _ in checks), default=0)
    idx = np.asarray(order, dtype=int)[:width]
    if idx.size < width:
        raise ValueError("prefix longer than the order")
    _, first = np.unique(idx, return_index=True)
    repeats = np.setdiff1d(np.arange(width), first)
    distinct = int(repeats[0]) if repeats.size else width
    lengths = sorted({k for k, _ in checks if k > 0})
    cover = np.zeros(len(lengths))
    if lengths:
        starts = [0] + lengths[:-1]
        for rows in row_blocks(sample.n, width):
            segments = np.minimum.reduceat(sample.distance_rows(rows, idx), starts, axis=1)
            np.minimum.accumulate(segments, axis=1, out=segments)
            np.maximum(cover, segments.max(axis=0), out=cover)
    cover_at = dict(zip(lengths, cover.tolist()))
    separation = np.minimum.accumulate(sample.subsample(idx).earlier_distances())
    errors = []
    for k, r in checks:
        if k == 0:
            errors.append(InvalidNetError("net is empty"))
        elif k > distinct:
            errors.append(ValueError("indices must be distinct"))
        elif k > 1 and not separation[k - 1] > r:
            errors.append(InvalidNetError("net is not r-separated"))
        elif cover_at[k] > r:
            errors.append(InvalidNetError("net does not cover the sample at radius r"))
        else:
            errors.append(None)
    return errors
