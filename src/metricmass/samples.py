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

Every streamed pass runs through :func:`stream_blocks`.  A pass of at least
``THREADED_MIN_BLOCKS`` blocks' worth of entries, in a process that may run
on T > 1 cores, spreads its blocks over the calling thread and T - 1 threads
of a process-wide pool; ``SUMMARY_BLOCK_ELEMENTS`` then bounds the blocks of
all threads together.  Every step that combines block results is a
minimum, a maximum, an integer sum or a final sort, so every result is the
same for any number of cores.
"""
from __future__ import annotations

import csv
import json
import os
import queue
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


class InvalidNetError(ValueError):
    """A claimed r-net fails the separation or coverage requirement."""


def row_blocks(rows: int, width: int, budget: int) -> list[slice]:
    """Slices cutting ``rows`` rows of ``width`` entries each into blocks of
    at most ``budget`` entries, one row at least."""
    step = max(1, budget // max(width, 1))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def block_view(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols entries of a scratch buffer as a rows x cols
    array."""
    return buffer[:rows * cols].reshape(rows, cols)


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_one_thread = False


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def run_on_one_thread() -> None:
    """Run every later pass of this process on the calling thread, as a
    worker process that shares the cores with its siblings does."""
    global _one_thread
    _one_thread = True


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


def stream_blocks(work, blocks, entries: int, width: int, dtypes=(np.float64,)):
    """Yield ``work(block, buffers)`` for each block of one streamed pass of
    ``entries`` entries in rows of at most ``width``, as the blocks finish.

    ``blocks(budget)`` cuts the pass into blocks of at most ``budget``
    entries, or of one row; ``buffers`` holds one scratch array per dtype in
    ``dtypes``, each large enough for a block, allocated here on the calling
    thread, for ``work`` to compute the block in.  With T > 1 cores and at
    least ``THREADED_MIN_BLOCKS * SUMMARY_BLOCK_ELEMENTS`` entries, the
    calling thread and T - 1 threads of the process-wide pool each take the
    next block left, with buffers of their own and a budget of
    ``SUMMARY_BLOCK_ELEMENTS // T``, so a thread slowed by the machine takes
    fewer; otherwise the calling thread takes every block with one set and
    the whole budget.  So ``work`` must return nothing that aliases its
    buffers and read nothing another block writes, and the caller must
    combine the results in a way that does not depend on their order."""
    small = entries < THREADED_MIN_BLOCKS * SUMMARY_BLOCK_ELEMENTS
    threads = 1 if _one_thread or small else _cores()
    budget = max(1, SUMMARY_BLOCK_ELEMENTS // threads)
    size = max(budget, width)
    buffers = [[np.empty(size, dtype) for dtype in dtypes] for _ in range(threads)]
    cut = iter(blocks(budget))
    claim_lock = threading.Lock()
    results = queue.SimpleQueue()
    # Blocks the pool threads may have taken and the calling thread not yet
    # read, which bounds the results held at once.
    ahead = threading.Semaphore(2 * (threads - 1))

    def claim():
        with claim_lock:
            return next(cut, None)

    def run(thread):
        try:
            while True:
                ahead.acquire()
                block = claim()
                if block is None:
                    break
                results.put(("result", work(block, buffers[thread])))
        except Exception as error:  # raised again on the calling thread
            results.put(("error", error))
            return
        results.put(("done", None))

    runs = [_thread_pool().submit(run, thread) for thread in range(1, threads)]
    live = len(runs)

    def collect():
        """Yield the next result a pool thread left, if it left one."""
        nonlocal live
        kind, value = results.get()
        if kind == "error":
            raise value
        if kind == "done":
            live -= 1
        else:
            ahead.release()
            yield value

    try:
        while (block := claim()) is not None:
            yield work(block, buffers[0])
            while not results.empty():
                yield from collect()
        # No block is left, so a pool thread not yet started has none to do.
        live -= sum(run.cancel() for run in runs)
        while live:
            yield from collect()
    finally:
        # After an error, or when the caller stops reading, every pool
        # thread finds no block left, and none is left computing in a
        # buffer.
        cut = iter(())
        ahead.release(len(runs) + 1)
        wait(runs)


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
        if not ranks.size:
            return np.empty(0)
        if not 0 <= ranks.min() <= ranks.max() < counts.sum():
            raise IndexError("rank out of range of the positive pair distances")
        ends = np.cumsum(counts)
        buckets = np.searchsorted(ends, ranks, side="right")
        wanted = np.unique(buckets)
        values = np.empty(int(counts[wanted].sum()))
        filled = 0
        # Runs of wanted buckets with only empty ones between them: a run's
        # range of keys holds the same distances as its wanted buckets.
        split = ends[wanted[1:] - 1] > ends[wanted[:-1]]
        key_ranges = list(zip(wanted[np.append(True, split)], wanted[np.append(split, True)]))

        def select(rows, buffers):
            block = self._upper_block(rows, buffers[0])
            keys, mask, inside, below = (block_view(b, *block.shape) for b in buffers[1:])
            np.right_shift(block.view(np.int64), BUCKET_SHIFT, out=keys)
            mask.fill(False)
            for first, last in key_ranges:
                np.greater_equal(keys, first, out=inside)
                np.less_equal(keys, last, out=below)
                np.logical_and(inside, below, out=inside)
                np.logical_or(mask, inside, out=mask)
            found = block[mask]
            return found[found > 0]

        for found in self._upper_pass(select, (np.float64, np.int64, bool, bool, bool)):
            values[filled:filled + found.size] = found
            filled += found.size
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

    def _upper_pass(self, work, dtypes):
        """:func:`stream_blocks` over the row blocks of the upper triangle,
        each block a slice of at most ``SUMMARY_BLOCK_ROWS`` rows."""
        n = self.n

        def blocks(budget):
            step = max(1, min(SUMMARY_BLOCK_ROWS, budget // max(n, 1)))
            return (slice(start, min(start + step, n)) for start in range(0, n, step))

        return stream_blocks(work, blocks, n * (n + 1) // 2, n, dtypes)

    def _upper_block(self, rows: slice, buffer: np.ndarray) -> np.ndarray:
        """The distances from ``rows`` to every point from ``rows.start``
        on, computed in ``buffer``.  The diagonal of the block's leading
        square and the entries below it, which pair a point with itself or
        repeat a pair read above, are set to zero."""
        height = rows.stop - rows.start
        block = block_view(buffer, height, self.n - rows.start)
        self.space.kernel(self.points[rows], self.points[rows.start:], out=block)
        block[:, :height][np.tri(height, dtype=bool)] = 0.0
        return block

    def _summarize(self, histogram: bool = False) -> None:
        n = self.n
        buckets = 1 << (63 - BUCKET_SHIFT)

        def reduce(rows, buffers):
            block = self._upper_block(rows, buffers[0])
            height = block.shape[0]
            top = float(block.max())
            if not np.isfinite(top):
                raise ValueError("pairwise distances must be finite")
            counts = None
            if histogram:
                keys = block_view(buffers[1], *block.shape)
                np.right_shift(block.view(np.int64), BUCKET_SHIFT, out=keys)
                counts = np.bincount(keys.ravel(), minlength=buckets)
                # Zeros land in bucket 0 with the smallest subnormals.  The
                # zeroed triangle fills it alone unless some pair lies below
                # 2^-1022, which spares counting the zeros.
                tri = height * (height + 1) // 2
                counts[0] -= tri if counts[0] == tri else block.size - np.count_nonzero(block)
                # Only the buckets in use, to keep the result small.
                used = np.flatnonzero(counts)
                counts = used, counts[used]
            block[:, :height][np.tri(height, dtype=bool)] = np.inf
            return rows, top, block.min(axis=1), block.min(axis=0), counts

        row_min = np.empty(n)
        earlier = np.full(n, np.inf)
        diameter = 0.0
        counts = np.zeros(buckets, dtype=np.int64) if histogram else None
        dtypes = (np.float64, np.int64) if histogram else (np.float64,)
        for rows, top, rows_min, cols_min, used_counts in self._upper_pass(reduce, dtypes):
            diameter = max(diameter, top)
            row_min[rows] = rows_min
            np.minimum(earlier[rows.start:], cols_min, out=earlier[rows.start:])
            if histogram:
                used, used_count = used_counts
                counts[used] += used_count
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
        picks = sample.points[idx]

        def segment_cover(rows, buffers):
            d = block_view(buffers[0], rows.stop - rows.start, width)
            sample.space.kernel(sample.points[rows], picks, out=d)
            segments = np.minimum.reduceat(d, starts, axis=1)
            np.minimum.accumulate(segments, axis=1, out=segments)
            return segments.max(axis=0)

        for block_cover in stream_blocks(segment_cover,
                                         lambda budget: row_blocks(sample.n, width, budget),
                                         sample.n * width, width):
            np.maximum(cover, block_cover, out=cover)
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
