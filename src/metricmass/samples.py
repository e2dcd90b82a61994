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

Order statistics of the positive distances d(i, j), i < j, hold no
n(n - 1)/2 buffer; one loop of summary passes answers them
(:meth:`Sample.pair_rank_selector`).  A pilot of every ceil(n / 1024)-th
point sets a window of values around each wanted fraction, its quantile
plus and minus four standard errors, so the default radius grid's
percentile and median take the summary pass alone: it counts the positive
distances below each window's ends and keeps those inside, and a rank
inside is an offset into the kept values, sorted.  A window whose pilot
distances are all one value v, such as a tie on a lattice, keeps nothing:
the pass counts the distances below v and below v's next double up, and a
rank between the two counts is v.  A sample of at most 1,024 points is its
own pilot: its summary pass keeps every positive distance.  Every count is
exact, so a rank left over, past the buffer the pilot sized or outside its
window, lies in a bracket of known count.  The next pass keeps that bracket
whole if it fits ``KEPT_DISTANCES_SHARE`` of n * n distances, and otherwise
counts the distances below cuts inside it: at pilot distances, or at the
midpoint of its float64 bit patterns, whose order for non-negative doubles
is the order of the values; that pass also finds the smallest and largest
distance of each piece, which shrinks the piece to them.  Windows the pilot
predicts past that budget are cut so in the summary pass itself.

Three questions read one radius r only: per point, whether an earlier
point, and whether any other point, lies within r (:meth:`Sample.within`,
which serves the escape indicators, Good-Turing isolation, separation
and net checks), and per query, whether a sample point does
(:meth:`Sample.covers`, which serves net cover checks and the
classifier).  The cached summaries answer where they exist.  Otherwise a
sample of more than ``SUMMARY_BLOCK_ELEMENTS`` pairs n * n, in a space with
a neighbour index at r (a k-d tree, for ``euclidean`` and ``lp``:
:meth:`~metricmass.spaces.MetricSpace.neighbour_index`), asks the index
for each point's ``NEIGHBOURS`` nearest candidates within
r (1 + ``NEIGHBOUR_SLACK``), rows of points at a time, so the memory is
O(n * NEIGHBOURS).  A candidate within r (1 - ``NEIGHBOUR_SLACK``)
answers yes and no candidate answers no; a point with a candidate between
the two radii, or with every slot filled, is decided by the kernel over its
row, or its earlier points only.  Every d <= r decision is thus the
kernel's, and no result depends on whether the index was used.  Any other
sample runs the summary pass, or :meth:`Sample.nearest_to` for queries.

A sample whose whole n x n square fits in ``SUMMARY_BLOCK_ELEMENTS`` entries,
such as a simulation replicate, skips the streaming: each pass over it is
one kernel call on the calling thread, with the lower triangle masked once
by a cached mask.

The discrete metric takes no pass at all: its distances are 0 between two
draws of one symbol and 1 otherwise, so symbol counts answer it in
O(n log n).  A discrete sample holds integer codes of its symbols, from one
sort (:meth:`~metricmass.spaces.MetricSpace.symbol_codes`), which fill its
summaries and its count of zero pairs, and every positive order statistic
is 1.  Symbols numpy does not sort (object arrays) have no codes, and take
the passes.

Every larger pass runs through :func:`stream_blocks`, and only this module
cuts passes into blocks: the upper-triangle passes, the net checks, the
rows a neighbour index leaves to the kernel, and :meth:`Sample.nearest_to`,
which serves the classifier and the Monte Carlo oracle.  A pass of at least
``THREADED_MIN_BLOCKS`` blocks' worth of entries, in a process that may run
on T > 1 cores and is not a worker process, spreads its blocks over the
calling thread and T - 1 threads of a process-wide pool;
``SUMMARY_BLOCK_ELEMENTS`` then bounds the blocks of all threads together.
Each thread computes its block unlocked and folds the result into the
pass's totals under the lock that hands out the blocks.  Every fold is a
minimum, a maximum, an integer sum, a write of the block's own rows or an
append before a final sort, so every result is the same for any number of
cores.  A neighbour index answers each point on its own, on T threads of
its own.
"""
from __future__ import annotations

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
# A neighbour index finds this many nearest candidates of each point.
NEIGHBOURS = 8
# Candidates come from r (1 + NEIGHBOUR_SLACK); one within r (1 -
# NEIGHBOUR_SLACK) lies within r by the kernel too.  The tree's and the
# kernel's sums of D powers each err by about D units in the last place,
# far below this slack short of 2^23 dimensions.
NEIGHBOUR_SLACK = 2.0 ** -30
# A pass of fewer entries than this many blocks runs on the calling thread,
# where handing blocks to other threads would cost more than it saves.
THREADED_MIN_BLOCKS = 2
# Rows per block of the upper-triangle pass.  Each block also computes the
# square below its part of the diagonal and discards it; short blocks keep
# that waste near n * SUMMARY_BLOCK_ROWS / 2 entries in all.
SUMMARY_BLOCK_ROWS = 64
# A pass of the order statistics keeps at most this share of n * n
# distances, or as many as there are ranks asked if that is more; a bracket
# of more is cut.
KEPT_DISTANCES_SHARE = 1 / 8
# Scratch of a pass that keeps the distances in value ranges: the two masks
# of one range.
SELECT_SCRATCH = (bool, bool)
# Every positive double, the value range of a pass that keeps them all.
ALL_POSITIVE = (float(np.nextafter(0.0, 1.0)), np.inf)
# The pilot of the windowed order statistics has at most this many points.
PILOT_POINTS = 1024
# A window spans the pilot's quantile plus and minus this many standard
# errors of it.
WINDOW_ERRORS = 4
# Room for this share more distances than the pilot predicts the windows
# hold.
WINDOW_SLACK = 1 / 16


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


def _keep(block: np.ndarray, ranges, scratch) -> tuple[np.ndarray, list[int]]:
    """The entries of ``block`` in the value ranges [lo, hi), disjoint and
    in increasing order, and per range the number of entries below lo and
    below hi; an empty range [v, v) only counts.  ``scratch`` holds two
    boolean arrays of the block's shape."""
    at_least, below = scratch
    found, counts = [], []
    for lo, hi in ranges:
        np.less(block, hi, out=below)
        if lo == hi:  # an empty range only counts
            counts += [np.count_nonzero(below)] * 2
            continue
        np.greater_equal(block, lo, out=at_least)
        counts += [block.size - np.count_nonzero(at_least), np.count_nonzero(below)]
        # compress gathers a sparse mask's entries faster than indexing.
        found.append(np.compress(np.logical_and(at_least, below, out=below).ravel(),
                                 block.ravel()))
    return (found[0] if len(found) == 1 else np.concatenate([np.empty(0), *found])), counts


def _plan(brackets, budget: int, guide: np.ndarray) -> tuple[list, int, list]:
    """The value ranges, the buffer size and the spans of a pass over the
    brackets (lo, hi, count), disjoint and in increasing order, each
    holding ``count`` distances: it keeps a bracket whole while the counts
    it keeps fit the budget, and counts the distances below cuts inside the
    rest.

    Where some of the sorted ``guide`` distances fall in a bracket, its
    cuts are every k-th of them, k such that the guide predicts pieces of
    half the budget, each with its next double up, so a value the guide
    finds tied becomes a one-value bracket of its own.  Otherwise the cut
    is the midpoint of the bracket's bit patterns, whose order for
    non-negative doubles is the order of the values, and the two pieces
    are spans, whose smallest and largest distances the pass finds, so a
    piece of one value, such as a tie the guide misses, becomes a
    one-value bracket after that pass.  Either way a bracket that is not
    one value has a cut above its lo."""
    ranges, capacity, spans = [], 0, []
    for lo, hi, count in brackets:
        if capacity + count <= budget:
            ranges.append((lo, hi))
            capacity += count
            continue
        inside = guide[np.searchsorted(guide, lo):np.searchsorted(guide, hi)]
        if inside.size:
            step = max(1, budget * inside.size // (2 * count))
            picked = np.unique(inside[step // 2::step])
            cuts = np.union1d(picked, np.nextafter(picked, np.inf))
            cuts = cuts[cuts < hi].tolist()
        else:
            first, last = (int(v) for v in np.array([lo, hi]).view(np.int64))
            cuts = [float(np.array(first + (last - first) // 2).view(np.float64))]
            spans += [(lo, cuts[0]), (cuts[0], hi)]
        ranges += [(cut, cut) for cut in cuts]
    return ranges, capacity, spans


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _threads() -> int:
    """The threads a large pass runs on: every core, or one in a worker
    process, which shares the cores with its siblings."""
    return 1 if multiprocessing.parent_process() is not None else _cores()


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
    that does not depend on that order.  The first error from ``work`` or
    ``fold`` ends the pass, and is raised here once no thread is left
    computing in a buffer."""
    threads = 1 if entries < THREADED_MIN_BLOCKS * SUMMARY_BLOCK_ELEMENTS else _threads()
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
                        fold(result)
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


def _stop_blocks(stops: np.ndarray, budget: int):
    """Slices cutting rows whose ``stops`` never decrease into blocks of at
    most ``budget`` entries, a block's rows times its last row's stop, or
    of one row."""
    start = 0
    while start < len(stops):
        # No block starting here holds more rows than this.
        most = budget // max(int(stops[start]), 1)
        if stops[start] == stops[-1]:  # every row left has this stop
            rows = min(most, len(stops) - start)
        else:
            ahead = stops[start:start + most + 1]
            rows = int(np.count_nonzero(np.arange(1, len(ahead) + 1) * ahead <= budget))
        rows = max(1, rows)
        yield slice(start, start + rows)
        start += rows


def _cross_pass(space: MetricSpace, queries: np.ndarray, points: np.ndarray,
                work, fold=None, stops=None) -> None:
    """``work(rows, block)`` for each row block of the distances from
    ``queries`` to ``points``, ``block`` holding those from the queries
    ``rows``, through :func:`stream_blocks` with ``fold``.  With ``stops``,
    which never decrease, query q needs only the points before stops[q],
    and a block holds its queries' distances to the points before its last
    query's stop."""
    if stops is None:
        stops = np.full(len(queries), len(points))

    def run(rows, buffers):
        block = _block_view(buffers[0], rows.stop - rows.start, stops[rows.stop - 1])
        return work(rows, space.kernel(queries[rows], points[:block.shape[1]], out=block))

    stream_blocks(run, lambda budget: _stop_blocks(stops, budget), int(stops.sum()),
                  int(stops[-1]) if len(stops) else 0, fold)


def _checked_ranks(ranks, count: int) -> np.ndarray:
    """The ranks as an int64 array, each checked to lie in [0, count)."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size and not 0 <= ranks.min() <= ranks.max() < count:
        raise IndexError("rank out of range of the positive pair distances")
    return ranks


class Sample:
    """An ordered iid sample of points from one space.

    Immutable after construction apart from the distance matrix, built on
    request, and the summaries, filled on first use.
    ``atom_indices`` carries optional provenance for samples generated from a
    finite-support distribution (indices into its atom list), which the
    oracles use for fast exact computations.  ``symbol_codes`` holds the
    space's integer codes of the points on the discrete metric, equal for
    two points exactly where their distance is 0
    (:meth:`~metricmass.spaces.MetricSpace.symbol_codes`), and None for
    every other space.
    """

    def __init__(self, points, space: MetricSpace, atom_indices=None):
        self.space = space
        self.points = space.as_points(points)
        self.atom_indices = None if atom_indices is None else np.asarray(atom_indices, dtype=int)
        self.symbol_codes = space.symbol_codes(self.points)
        self._distances: np.ndarray | None = None
        self._nearest: np.ndarray | None = None
        self._earlier: np.ndarray | None = None
        self._diameter: float | None = None
        self._zeros: int | None = None

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
            self._summaries()
        return self._diameter

    def nearest_distances(self) -> np.ndarray:
        """Per point, the distance to its nearest other sample point (inf
        for a single point).  Read-only."""
        if self._nearest is None:
            self._summaries()
        return self._nearest

    def earlier_distances(self) -> np.ndarray:
        """Per point, the distance to its nearest strictly earlier sample
        point in sample order (inf for the first point).  Read-only."""
        if self._earlier is None:
            self._summaries()
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

    def within(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Two boolean arrays: per point, whether a strictly earlier point
        in sample order lies within r of it (d <= r), and whether any other
        point does.

        The cached summaries answer where they exist, and otherwise the
        neighbour index (:meth:`_neighbour_index`), asked for each point's
        ``NEIGHBOURS`` nearest candidates, or the summary pass."""
        index = self._neighbour_index(r) if self._earlier is None else None
        if index is None:
            return self.earlier_distances() <= r, self.nearest_distances() <= r
        (earlier, other), (late, lone) = self._index_answers(
            index, self.points, r, NEIGHBOURS, (np.less, np.not_equal))
        del index  # free the tree before the kernel's rows take their blocks
        earlier[late] = self._rows_within(late, r, earlier=True)
        other[lone] = self._rows_within(lone, r, earlier=False)
        return earlier, other

    def covers(self, queries, r: float) -> np.ndarray:
        """Per query, whether a sample point lies within r of it (d <= r),
        from the neighbour index (:meth:`_neighbour_index`), asked for each
        query's nearest candidate, or from the queries' nearest distances
        (:meth:`nearest_to`)."""
        queries = self.space.as_points(queries)
        index = self._neighbour_index(r)
        if index is None:
            return self.nearest_to(queries)[:, 0] <= r
        # The nearest candidate is the smallest, so it alone decides.
        (found,), (unsure,) = self._index_answers(index, queries, r, 1, (lambda j, own: True,))
        found[unsure] = self.nearest_to(queries[unsure])[:, 0] <= r
        return found

    def _neighbour_index(self, r: float):
        """The space's neighbour index over the sample at r, for a sample of
        more than ``SUMMARY_BLOCK_ELEMENTS`` pairs n * n; a smaller one
        takes one kernel call per pass instead.  Else None."""
        if self.n * self.n <= SUMMARY_BLOCK_ELEMENTS:
            return None
        return self.space.neighbour_index(self.points, r)

    def _index_answers(self, index, queries, r: float, k: int, questions):
        """Per question, the answers the index gives for each query and
        the queries it leaves to the kernel.

        ``index`` (:meth:`~metricmass.spaces.MetricSpace.neighbour_index`)
        finds each query's k nearest sample points within
        r (1 + ``NEIGHBOUR_SLACK``), rows of queries at a time, so the
        candidates of a chunk take less memory than a block of distances.
        A question ``question(j, own)`` marks the candidates j it counts for
        the query at index ``own``.  The index's distances may differ from
        the kernel's in the last bits, so a counted candidate within
        r (1 - ``NEIGHBOUR_SLACK``) answers yes, and no counted candidate
        answers no unless the k slots are full; a query with only counted
        candidates between the two radii, or with full slots, is left to
        the kernel.  Every answer is thus the kernel's d <= r."""
        low, high = r * (1 - NEIGHBOUR_SLACK), r * (1 + NEIGHBOUR_SLACK)
        answers = [np.zeros(len(queries), dtype=bool) for _ in questions]
        unsure = [[np.empty(0, dtype=np.intp)] for _ in questions]
        for rows in _row_blocks(len(queries), SUMMARY_BLOCK_ELEMENTS // (4 * k)):
            # An empty slot has distance inf and index n.
            d, j = (a.reshape(rows.stop - rows.start, k) for a in index(
                queries[rows], k=k, distance_upper_bound=high, workers=_threads()))
            own = np.arange(rows.start, rows.stop)[:, None]
            filled, near = np.isfinite(d), d <= low
            full = filled[:, -1]
            for question, answer, left in zip(questions, answers, unsure):
                counted = question(j, own) & filled
                yes = answer[rows] = (counted & near).any(axis=1)
                left.append(rows.start + np.flatnonzero(~yes & (full | counted.any(axis=1))))
        return answers, [np.concatenate(left) for left in unsure]

    def _rows_within(self, rows: np.ndarray, r: float, earlier: bool) -> np.ndarray:
        """Per point of ``rows`` (increasing), whether a strictly earlier
        point (``earlier``) or any other point lies within r of it, by the
        kernel over its row, or over the points before it."""
        found = np.empty(len(rows), dtype=bool)

        def check(block_rows, d):
            # Each block writes its own rows of ``found``.
            own = rows[block_rows]
            if earlier:  # the block reaches the points before its last row
                for q, stop in enumerate(own.tolist()):
                    d[q, stop:] = np.inf
            else:
                d[np.arange(len(own)), own] = np.inf
            np.less_equal(d.min(axis=1, initial=np.inf), r, out=found[block_rows])

        _cross_pass(self.space, self.points[rows], self.points, check,
                    stops=rows if earlier else None)
        return found

    def positive_pair_count(self) -> int:
        """The number of pairs i < j at a positive distance."""
        if self._zeros is None:
            self._summaries()
        return self.n * (self.n - 1) // 2 - self._zeros

    def pair_rank_selector(self, fractions):
        """(count, select): the number of positive distances d(i, j), i < j,
        and ``select(ranks)``, which returns those at the given ranks (0 the
        smallest), one per rank.

        The summary pass also counts the distances below the ends of a
        window around each fraction (:meth:`_pilot_windows`) and keeps
        those inside, in a buffer the pilot sizes.  A sample of at most
        ``PILOT_POINTS`` points is its own pilot and keeps every positive
        distance.  ``select`` answers a rank from the sorted kept values,
        or by v when the counts put it in a one-value bracket [v, v's next
        double up).  Every pass counts exactly the distances below each
        edge, so a rank left over lies in a bracket of known count, which
        the next pass keeps or cuts (:func:`_plan`); the budget is
        ``KEPT_DISTANCES_SHARE`` * n * n distances, or as many as the ranks
        asked if that is more.  Each pass narrows every bracket a rank is
        left in, so the passes end.  On the discrete metric every positive
        distance is 1, so ``select`` answers 1.0 with no pass."""
        if self.symbol_codes is not None:
            count = self.positive_pair_count()
            return count, lambda ranks: np.ones(_checked_ranks(ranks, count).shape)
        n = self.n
        fractions = np.asarray(fractions, dtype=float)
        budget = int(n * n * KEPT_DISTANCES_SHARE)
        if n <= PILOT_POINTS:
            ranges, capacity, spans, guide = [ALL_POSITIVE], n * (n - 1) // 2, [], np.empty(0)
        else:
            pilot = self.subsample(np.arange(0, n, -(-n // PILOT_POINTS)))
            windows, guide = pilot._pilot_windows(fractions, n)
            ranges, capacity, spans = _plan(windows, max(budget, fractions.size), guide)
        # The known edges, increasing, the number of positive distances
        # below each, and the sorted distances of each kept bracket, by the
        # edge it starts at.
        edges, below, kept = np.empty(0), np.empty(0, dtype=np.int64), {}

        def count_pass(ranges, capacity, spans):
            nonlocal edges, below
            counts, values, extents = self._summarize(ranges=ranges, capacity=capacity,
                                                      spans=spans)
            extents = np.array(extents).reshape(-1, 2)
            ends = np.concatenate([edges, ALL_POSITIVE, np.ravel(ranges)])
            edges, first = np.unique(ends, return_index=True)
            below = np.concatenate([below, [0, self.positive_pair_count()], counts])[first]
            # A span's distances lie from its smallest to its largest, so as
            # many lie below the smallest as below the span's lo, and below
            # the largest's next double up as below its hi.
            seen = extents[:, 0] <= extents[:, 1]
            if seen.any():
                bounds = np.searchsorted(edges, np.array(spans)[seen])
                ends = np.concatenate([edges, extents[seen, 0],
                                       np.nextafter(extents[seen, 1], np.inf)])
                edges, first = np.unique(ends, return_index=True)
                below = np.concatenate([below, below[bounds[:, 0]], below[bounds[:, 1]]])[first]
            if values is not None:
                values.sort()
                # The kept distances of each range follow those of the ranges below.
                sizes = counts[1::2] - counts[::2]
                for (lo, hi), stop, size in zip(ranges, np.cumsum(sizes), sizes):
                    if lo < hi:
                        kept[lo] = values[stop - size:stop]

        count_pass(ranges, capacity, spans)

        def select(ranks):
            ranks = _checked_ranks(ranks, below[-1])
            found = np.empty(ranks.shape)
            while True:
                # The bracket [edges[i], edges[i + 1]) whose counts hold each rank.
                bracket = np.searchsorted(below, ranks, side="right") - 1
                left = []
                for i in np.unique(bracket):
                    at = bracket == i
                    lo, hi = edges[i], edges[i + 1]
                    if lo in kept:
                        found[at] = kept[lo][ranks[at] - below[i]]
                    elif hi == np.nextafter(lo, np.inf):
                        found[at] = lo
                    else:
                        left.append((lo, hi, below[i + 1] - below[i]))
                if not left:
                    return found
                count_pass(*_plan(left, max(budget, ranks.size), guide))

        return self.positive_pair_count(), select

    def _pilot_windows(self, fractions: np.ndarray, sample_size: int) -> tuple[list, np.ndarray]:
        """Disjoint brackets (lo, hi, count), in increasing order, around the
        given fractions of this pilot's positive distances, count being how
        many of a sample's distances the pilot predicts in [lo, hi), and
        every k-th of the pilot's distances, sorted, at most
        ``PILOT_POINTS`` of them; no bracket where there is no distance.

        The pilot is a subsample of m of a sample's ``sample_size`` points.
        Each window spans the pilot's quantile plus and minus
        ``WINDOW_ERRORS`` standard errors of it, read off the pilot's own
        sorted distances.  The fraction of the pilot's distances at or
        below the quantile q is a U-statistic (Hoeffding 1948): it differs
        from the whole sample's fraction by a standard error of
        2 std(F_i) sqrt(1/m - 1/sample_size), F_i being the share of pilot
        point i's m - 1 distances at or below q.  Two passes over the
        pilot's pairs compute it: one keeps the distances, one counts each
        point's distances at or below each quantile.  Windows that overlap
        are merged, and the predicted counts have ``WINDOW_SLACK`` to
        spare.  A window whose pilot distances are all one value v becomes
        the empty brackets at v and at v's next double up, which keep
        nothing and count the distances equal to v."""
        m = self.n
        values = self._summarize(ranges=[ALL_POSITIVE], capacity=m * (m - 1) // 2)[1]
        values.sort()
        count = values.size
        guide = values[::max(1, -(-count // PILOT_POINTS))].copy()
        if not count or not fractions.size:
            return [], guide
        last = count - 1
        quantiles = values[np.floor(fractions * last).astype(np.int64)]
        within = self._within_counts(quantiles) / (m - 1)
        errors = WINDOW_ERRORS * 2 * within.std(axis=1) * math.sqrt(1 / m - 1 / sample_size)
        lows = np.floor((fractions - errors) * last).astype(np.int64)
        # Each window takes the values tied with its last one, which a
        # wanted rank may sit among.
        ends = values[np.minimum(np.ceil((fractions + errors) * last).astype(np.int64), last)]
        highs = np.searchsorted(values, ends, side="right")
        windows = sorted(
            (float(values[lo]) if lo > 0 else ALL_POSITIVE[0],
             float(values[hi]) if hi < count else np.inf)
            for lo, hi in zip(lows, highs))
        merged = [windows[0]]
        for lo, hi in windows[1:]:
            if lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
        # The sample's distances per pilot distance, with the slack.
        scale = sample_size * (sample_size - 1) / 2 * (1 + WINDOW_SLACK) / count
        brackets = []
        for lo, hi in merged:
            first, stop = np.searchsorted(values, [lo, hi])
            if values[first] == values[stop - 1]:
                tie = float(values[first])
                up = float(np.nextafter(tie, np.inf))
                brackets += [(tie, tie, 0), (up, up, 0)]
            else:
                brackets.append((lo, hi, math.ceil((stop - first) * scale)))
        return brackets, guide

    def _within_counts(self, thresholds: np.ndarray) -> np.ndarray:
        """Per threshold t and point i, how many other points lie within t
        of point i, by one upper-triangle pass."""
        counts = np.zeros((len(thresholds), self.n), dtype=np.int64)
        limits = thresholds[:, None, None]

        def reduce(rows, block, scratch):
            _mask_lower(block, rows.stop - rows.start)
            within = block[None] <= limits
            return rows, within.sum(axis=2), within.sum(axis=1)

        def fold(result):
            rows, by_row, by_column = result
            counts[:, rows] += by_row
            counts[:, rows.start:] += by_column

        self._upper_pass(reduce, fold)
        return counts

    def pair_order_statistics(self, ranks) -> np.ndarray:
        """The positive distances d(i, j), i < j, at the given ranks (0 the
        smallest), one per rank, by the passes of :meth:`pair_rank_selector`
        with no window."""
        return self.pair_rank_selector(())[1](ranks)

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
        n, points = self.n, self.points

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

    def _summaries(self) -> None:
        """Fill the nearest and earlier distances, the diameter and the
        number of zero distances d(i, j), i < j: from the symbol codes on
        the discrete metric, in O(n log n), else by the summary pass
        (:meth:`_summarize`).

        A discrete distance is 0 between two draws of one symbol and 1
        otherwise, so a point's earlier distance is 0 after its symbol's
        first draw and 1 at it, and its nearest distance 0 for a symbol
        drawn twice or more and 1 for one drawn once; inf stays where no
        other point is, as on the summary pass."""
        codes = self.symbol_codes
        if codes is None:
            self._summarize()
            return
        n = self.n
        counts = np.bincount(codes)
        earlier = np.zeros(n)
        earlier[np.unique(codes, return_index=True)[1]] = 1.0
        earlier[:1] = np.inf
        nearest = np.where(counts[codes] > 1, 0.0, 1.0 if n > 1 else np.inf)
        nearest.flags.writeable = False
        earlier.flags.writeable = False
        self._nearest, self._earlier = nearest, earlier
        self._diameter = 1.0 if len(counts) > 1 else 0.0
        self._zeros = int((counts * (counts - 1) // 2).sum())

    def _summarize(self, ranges=(), capacity: int = 0, spans=()):
        """Fill the nearest and earlier distances, the diameter and the
        number of zero distances d(i, j), i < j, by one upper-triangle pass.

        Return the numbers of positive distances below each of ``ranges``'
        lo and hi, in that order, the distances in the ranges, unsorted,
        in a buffer of ``capacity`` entries, or None where they overflow it,
        and per span the smallest and the largest distance in it (inf and
        -inf where it has none).  ``ranges`` are disjoint value ranges
        [lo, hi) in increasing order; an empty one [v, v) keeps nothing.
        ``spans`` are value ranges [lo, hi) of positive distances, which
        need ``ranges``' scratch."""
        n = self.n

        def span_extent(block, lo, hi, scratch):
            inside = np.logical_and(np.greater_equal(block, lo, out=scratch[0]),
                                    np.less(block, hi, out=scratch[1]), out=scratch[0])
            return (float(block.min(where=inside, initial=np.inf)),
                    float(block.max(where=inside, initial=-np.inf)))

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
            rows_min = block.min(axis=1)
            zeros = block.size - np.count_nonzero(block) if rows_min.min() == 0 else 0
            found, below = _keep(block, ranges, scratch) if ranges else (None, None)
            seen = [span_extent(block, lo, hi, scratch) for lo, hi in spans]
            return rows, top, rows_min, block.min(axis=0), zeros, found, below, seen

        row_min = np.empty(n)
        earlier = np.full(n, np.inf)
        diameter = 0.0
        zeros = 0
        edges = np.zeros(2 * len(ranges), dtype=np.int64)
        values = np.empty(capacity)
        filled = 0
        extents = [[math.inf, -math.inf] for _ in spans]

        def fold(result):
            nonlocal diameter, zeros, values, filled
            rows, top, rows_min, cols_min, block_zeros, found, below, seen = result
            for extent, (small, large) in zip(extents, seen):
                extent[:] = min(extent[0], small), max(extent[1], large)
            diameter = max(diameter, top)
            row_min[rows] = rows_min
            np.minimum(earlier[rows.start:], cols_min, out=earlier[rows.start:])
            zeros += block_zeros
            if ranges:
                edges[:] += below
                edges[:] -= block_zeros  # zeros lie below every range
                if values is not None and filled + found.size > capacity:
                    values = None  # the summaries still need the whole pass
                if values is not None:
                    values[filled:filled + found.size] = found
                    filled += found.size

        self._upper_pass(reduce, fold, SELECT_SCRATCH if ranges else ())
        nearest = np.minimum(row_min, earlier)
        nearest.flags.writeable = False
        earlier.flags.writeable = False
        self._nearest, self._earlier, self._diameter = nearest, earlier, diameter
        self._zeros = zeros
        return edges, None if values is None else values[:filled], extents

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
        # numpy parses each cell by float()'s rules, in one call.
        return make_sample(np.array(rows, dtype=float), space)
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
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    idx = np.asarray(indices, dtype=int)
    if len(np.unique(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    return not sample.subsample(idx).within(r)[0].any()


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
    """Raise InvalidNetError unless ``net`` is r-separated and covers the
    sample, by :meth:`Sample.within` over the net and :meth:`Sample.covers`
    of the sample points."""
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    idx = np.asarray(net, dtype=int)
    if idx.size == 0:
        raise InvalidNetError("net is empty")
    if len(np.unique(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    picks = sample.subsample(idx)
    if picks.within(r)[0].any():
        raise InvalidNetError("net is not r-separated")
    if not picks.covers(sample.points, r).all():
        raise InvalidNetError("net does not cover the sample at radius r")


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
