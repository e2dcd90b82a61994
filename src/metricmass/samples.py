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
keeps only the distances in those buckets and sorts them.  Where ties fill
those buckets past ``KEPT_DISTANCES_SHARE`` of n * n, it keeps each
distinct distance once with its count.

A sample whose whole n x n square fits in ``SUMMARY_BLOCK_ELEMENTS`` entries,
such as a simulation replicate, skips the streaming: each pass over it is
one kernel call on the calling thread, with the lower triangle masked once
by a cached mask.  The kernel reads the space's cheapest exact input
(:meth:`~metricmass.spaces.MetricSpace.kernel_points`), integer codes in
place of discrete symbols.

Every larger pass runs through :func:`stream_blocks`, and only this module
cuts passes into blocks: the upper-triangle passes, the net checks, and
:meth:`Sample.nearest_to`, which serves the classifier and the Monte Carlo
oracle.  A pass of at least ``THREADED_MIN_BLOCKS`` blocks' worth of
entries, in a process that may run on T > 1 cores and is not a worker
process, spreads its blocks over the calling thread and T - 1 threads of a
process-wide pool; ``SUMMARY_BLOCK_ELEMENTS`` then bounds the blocks of all
threads together.  Each thread computes its block unlocked and folds the
result into the pass's totals under the lock that hands out the blocks.
Every fold is a minimum, a maximum, an integer sum, a write of the block's
own rows or an append before a final sort, so every result is the same for
any number of cores.
"""
from __future__ import annotations

import collections
import csv
import json
import math
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .spaces import MetricSpace, discrete, euclidean, precomputed

# Elements in the row blocks of distances alive at once, which bounds the
# temporaries of every blocked pass.
SUMMARY_BLOCK_ELEMENTS = 1 << 18
# A pass of fewer entries than this many blocks runs on the calling thread,
# where handing blocks to other threads would cost more than it saves.
THREADED_MIN_BLOCKS = 2
# Rows per block of the upper-triangle pass.  Each block also computes the
# square below its part of the diagonal and discards it; short blocks keep
# that waste near n * SUMMARY_BLOCK_ROWS / 2 entries in all.
SUMMARY_BLOCK_ROWS = 64
# A distance's bucket is its float64 bit pattern shifted right by this many
# bits: the sign, the exponent and the four leading mantissa bits.
BUCKET_SHIFT = 48
# The bucket of inf, which masks the entries a block repeats.
INF_BUCKET = int(np.float64(np.inf).view(np.int64)) >> BUCKET_SHIFT
# The order-statistics pass keeps the distances of the wanted buckets one by
# one while they number at most this share of n * n; past it, as (value,
# count) pairs, which ties make few.
KEPT_DISTANCES_SHARE = 1 / 8
# Scratch of the order-statistics pass: keys, and the masks of wanted keys.
SELECT_SCRATCH = (np.int64, bool, bool, bool)


class InvalidNetError(ValueError):
    """A claimed r-net fails the separation or coverage requirement."""


def _row_blocks(rows: int, step: int):
    """Slices cutting ``rows`` rows into blocks of ``step`` rows, one at
    least."""
    step = max(1, step)
    return (slice(start, min(start + step, rows)) for start in range(0, rows, step))


def _block_view(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols entries of a scratch buffer as a rows x cols
    array."""
    return buffer[:rows * cols].reshape(rows, cols)


# One mask serves every height, since tri(H)[:h, :h] is tri(h).  It is built
# on first use at the largest one-block height, and so seldom rebuilt: a mask
# kept per height, allocated mid-run, fragmented the heap (about 1.5 MB more
# peak RSS over a 6,000-point W1 sweep).
_triangle = np.empty((0, 0), dtype=bool)


def _lower_triangle(height: int) -> np.ndarray:
    """A read-only height x height mask of the diagonal and the entries
    below it."""
    global _triangle
    mask = _triangle  # pool threads may replace it meanwhile
    if height > len(mask):
        mask = np.tri(max(height, math.isqrt(SUMMARY_BLOCK_ELEMENTS)), dtype=bool)
        mask.flags.writeable = False
        _triangle = mask
    return mask[:height, :height]


def _mask_lower(block: np.ndarray, height: int) -> None:
    """Set the diagonal of the block's leading height x height square and the
    entries below it, which pair a point with itself or repeat a pair read
    above, to inf."""
    np.copyto(block[:, :height], np.inf, where=_lower_triangle(height))


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _forget_pool() -> None:
    # A forked child inherits the pool but none of its threads, so the pool
    # would wait forever for its first task.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _thread_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_cores(), thread_name_prefix="metricmass")
        return _pool


def stream_blocks(work, blocks, entries: int, width: int, fold=None,
                  dtypes=(np.float64,)) -> None:
    """Run one streamed pass of ``entries`` entries in rows of at most
    ``width``: ``work(block, buffers)`` for each block, then ``fold`` of its
    result, if given.

    ``blocks(budget)`` cuts the pass into blocks of at most ``budget``
    entries, or of one row; ``buffers`` holds one scratch array per dtype in
    ``dtypes``, each large enough for a block, allocated here on the calling
    thread, for ``work`` to compute the block in.  With T > 1 cores, in a
    process that is not itself a worker sharing them with its siblings, and
    at least ``THREADED_MIN_BLOCKS * SUMMARY_BLOCK_ELEMENTS`` entries, the
    calling thread and T - 1 threads of the process-wide pool each take the
    next block left, with buffers of their own and a budget of
    ``SUMMARY_BLOCK_ELEMENTS // T``, so a thread slowed by the machine takes
    fewer; otherwise the calling thread takes every block with one set and
    the whole budget.  ``work`` runs unlocked, so it must read nothing
    another block writes and write only what no other block touches.
    ``fold`` runs under the lock that hands out the blocks, one result at a
    time in the order the blocks finish, so it must combine them in a way
    that does not depend on that order; a ``fold`` that returns True ends
    the pass, and no result is folded after it.  The first error from
    ``work`` or ``fold`` also ends the pass, and is raised here once no
    thread is left computing in a buffer."""
    small = entries < THREADED_MIN_BLOCKS * SUMMARY_BLOCK_ELEMENTS
    threads = 1 if small or multiprocessing.parent_process() is not None else _cores()
    budget = max(1, SUMMARY_BLOCK_ELEMENTS // threads)
    size = max(budget, width)
    buffers = [[np.empty(size, dtype) for dtype in dtypes] for _ in range(threads)]
    cut = iter(blocks(budget))
    lock = threading.Lock()
    ended = False
    errors = []

    def run(scratch):
        nonlocal ended
        try:
            with lock:
                block = None if ended else next(cut, None)
            while block is not None:
                result = work(block, scratch)
                with lock:
                    if not ended and fold is not None:
                        ended = bool(fold(result))
                    block = None if ended else next(cut, None)
        except Exception as error:  # raised again on the calling thread
            with lock:
                errors.append(error)
                ended = True

    runs = [_thread_pool().submit(run, scratch) for scratch in buffers[1:]]
    try:
        run(buffers[0])
    except BaseException:  # an interrupt: the pool threads take no more blocks
        with lock:
            ended = True
        raise
    finally:
        # No block is left, so a pool thread not yet started has none to do.
        for future in runs:
            future.cancel()
        wait(runs)
    if errors:
        raise errors[0]


def _cross_pass(space: MetricSpace, queries: np.ndarray, points: np.ndarray,
                work, fold=None) -> None:
    """``work(rows, block)`` for each row block of the distances from
    ``queries`` to ``points``, ``block`` holding those from the queries
    ``rows``, through :func:`stream_blocks` with ``fold``."""
    width = len(points)

    def run(rows, buffers):
        block = _block_view(buffers[0], rows.stop - rows.start, width)
        return work(rows, space.kernel(queries[rows], points, out=block))

    stream_blocks(run, lambda budget: _row_blocks(len(queries), budget // max(width, 1)),
                  len(queries) * width, width, fold)


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

    def nearest_to(self, queries, k: int = 1) -> np.ndarray:
        """A len(queries) x k array: per query, the distance to its nearest
        sample point (k = 1), and to its second-nearest too (k = 2, inf for
        a one-point sample).  The distances stream in row blocks of
        queries, so no len(queries) x n matrix is held."""
        if k not in (1, 2):
            raise ValueError("k must be 1 or 2")
        queries = self.space.as_points(queries)
        nearest = np.full((len(queries), k), np.inf)

        def reduce(rows, d):
            # Each block writes its own rows of ``nearest``.
            if k == 2 and self.n > 1:
                d.partition(1, axis=1)  # in place: no second block-sized array
                nearest[rows] = d[:, :2]
            else:
                d.min(axis=1, out=nearest[rows, 0])

        _cross_pass(self.space, queries, self.points, reduce)
        return nearest

    def positive_pair_count(self) -> int:
        """The number of pairs i < j at a positive distance."""
        return int(self._bucket_counts().sum())

    def pair_order_statistics(self, ranks) -> np.ndarray:
        """The positive distances d(i, j), i < j, at the given ranks (0 the
        smallest), one per rank, by a pass that keeps only the distances in
        the ranks' buckets."""
        counts = self._bucket_counts()
        ranks = np.asarray(ranks, dtype=np.int64)
        if not ranks.size:
            return np.empty(0)
        if not 0 <= ranks.min() <= ranks.max() < counts.sum():
            raise IndexError("rank out of range of the positive pair distances")
        ends = np.cumsum(counts)
        buckets = np.searchsorted(ends, ranks, side="right")
        wanted = np.unique(buckets)
        # Runs of wanted buckets with only empty ones between them: a run's
        # range of keys holds the same distances as its wanted buckets.
        split = ends[wanted[1:] - 1] > ends[wanted[:-1]]
        key_ranges = list(zip(wanted[np.append(True, split)], wanted[np.append(split, True)]))

        def select(rows, block, scratch):
            _mask_lower(block, rows.stop - rows.start)
            keys, mask, inside, below = scratch
            np.right_shift(block.view(np.int64), BUCKET_SHIFT, out=keys)
            mask.fill(False)
            for first, last in key_ranges:
                np.greater_equal(keys, first, out=inside)
                np.less_equal(keys, last, out=below)
                np.logical_and(inside, below, out=inside)
                np.logical_or(mask, inside, out=mask)
            found = block[mask]
            return found[found > 0]

        # Each wanted bucket's values are a run of the sorted values kept; a
        # rank's position is its offset in its bucket plus the runs before it.
        runs = np.cumsum(counts[wanted]) - counts[wanted]
        offsets = ranks - (ends[buckets] - counts[buckets])
        positions = runs[np.searchsorted(wanted, buckets)] + offsets
        kept = int(counts[wanted].sum())
        # The buffer takes any one block's distances.
        tied = (self._value_tallies(select, max(SUMMARY_BLOCK_ELEMENTS, self.n))
                if kept > self.n * self.n * KEPT_DISTANCES_SHARE else None)
        if tied is not None:
            values, tallies = tied
            return values[np.searchsorted(np.cumsum(tallies), positions, side="right")]
        values = np.empty(kept)
        filled = 0

        def fold(found):
            nonlocal filled
            values[filled:filled + found.size] = found
            filled += found.size

        self._upper_pass(select, fold, SELECT_SCRATCH)
        values.sort()
        return values[positions]

    def _value_tallies(self, select, capacity: int):
        """The distinct values the blocks of ``select`` find, sorted, and how
        often each occurs, or None where ties are too few to pay.  Found
        values fill a buffer of ``capacity`` entries, squeezed into the
        (value, count) pairs whenever it is full; once the pairs outnumber
        half the buffer they hold more than the values would, and the pass
        stops."""
        buffer = np.empty(capacity)
        filled = 0
        tallies = collections.Counter()

        def squeeze():
            values, counts = np.unique(buffer[:filled], return_counts=True)
            tallies.update(dict(zip(values.tolist(), counts.tolist())))

        def fold(found):
            nonlocal filled
            if filled + found.size > capacity:
                squeeze()
                filled = 0
                if len(tallies) > capacity // 2:
                    return True
            buffer[filled:filled + found.size] = found
            filled += found.size

        self._upper_pass(select, fold, SELECT_SCRATCH)
        # Every squeeze but the one that gave up left at most half.
        if len(tallies) > capacity // 2:
            return None
        squeeze()
        values = sorted(tallies)
        return np.array(values), np.array([tallies[v] for v in values])

    def _bucket_counts(self) -> np.ndarray:
        if self._buckets is None:
            self._summarize(histogram=True)
        return self._buckets

    def _upper_pass(self, work, fold, dtypes=()) -> None:
        """``work(rows, block, scratch)`` for each row block of the upper
        triangle, each result handed to ``fold``.  ``block`` holds the
        distances from the points ``rows`` to every point from
        ``rows.start`` on, and ``scratch`` one array of its shape per dtype
        in ``dtypes``.  A sample whose whole square fits in
        ``SUMMARY_BLOCK_ELEMENTS`` entries is one block, computed by one
        kernel call on the calling thread; a larger one streams through
        :func:`stream_blocks` in blocks of at most ``SUMMARY_BLOCK_ROWS``
        rows."""
        n = self.n
        points = self.space.kernel_points(self.points)

        def run(rows, buffers):
            block = _block_view(buffers[0], rows.stop - rows.start, n - rows.start)
            self.space.kernel(points[rows], points[rows.start:], out=block)
            return work(rows, block, [_block_view(b, *block.shape) for b in buffers[1:]])

        dtypes = (np.float64, *dtypes)
        if n * n <= SUMMARY_BLOCK_ELEMENTS:
            if n:
                fold(run(slice(0, n), [np.empty(n * n, dtype) for dtype in dtypes]))
            return
        stream_blocks(run, lambda budget: _row_blocks(n, min(SUMMARY_BLOCK_ROWS, budget // n)),
                      n * (n + 1) // 2, n, fold, dtypes)

    def _summarize(self, histogram: bool = False) -> None:
        n = self.n
        buckets = 1 << (63 - BUCKET_SHIFT)

        def reduce(rows, block, scratch):
            height = rows.stop - rows.start
            # A precomputed matrix's diagonal need only be close to zero.
            # The entries below it repeat pairs above, so the maximum is the
            # pairs' maximum or zero.
            np.fill_diagonal(block, 0.0)
            top = float(block.max())
            if not np.isfinite(top):
                raise ValueError("pairwise distances must be finite")
            _mask_lower(block, height)
            counts = None
            if histogram:
                keys = np.right_shift(block.view(np.int64), BUCKET_SHIFT, out=scratch[0])
                counts = np.bincount(keys.ravel(), minlength=buckets)
                counts[INF_BUCKET] -= height * (height + 1) // 2
                # Zeros land in bucket 0 with the smallest subnormals, which
                # spares counting the zeros when the bucket is empty.
                if counts[0]:
                    counts[0] -= block.size - np.count_nonzero(block)
                # Only the buckets in use, to keep the result small.
                used = np.flatnonzero(counts)
                counts = used, counts[used]
            return rows, top, block.min(axis=1), block.min(axis=0), counts

        row_min = np.empty(n)
        earlier = np.full(n, np.inf)
        diameter = 0.0
        counts = np.zeros(buckets, dtype=np.int64) if histogram else None

        def fold(result):
            nonlocal diameter
            rows, top, rows_min, cols_min, used_counts = result
            diameter = max(diameter, top)
            row_min[rows] = rows_min
            np.minimum(earlier[rows.start:], cols_min, out=earlier[rows.start:])
            if histogram:
                used, used_count = used_counts
                counts[used] += used_count

        self._upper_pass(reduce, fold, (np.int64,) if histogram else ())
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
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise ValueError(f"{path}: data row {i + 1} has {len(row)} column(s) "
                                 f"where data row 1 has {len(rows[0])}")
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

        def segment_cover(rows, d):
            segments = np.minimum.reduceat(d, starts, axis=1)
            np.minimum.accumulate(segments, axis=1, out=segments)
            return segments.max(axis=0)

        def fold(block_cover):
            np.maximum(cover, block_cover, out=cover)

        _cross_pass(sample.space, sample.points, sample.points[idx], segment_cover, fold)
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
