"""Everything a sample computes from streamed row blocks of distances (the
cached nearest and earlier-nearest distances, the estimators read from
them, the diameter, the radius grid, farthest-first nets and net checks)
against dense references read from the whole matrix."""
import math
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricmass import samples, wasserstein
from metricmass.estimators import escape_indicators, good_turing
from metricmass.samples import (
    Sample,
    farthest_first_net,
    farthest_first_traversal,
    is_r_separated,
    make_sample,
    net_prefix,
    prefix_net_errors,
    verify_net,
)
from metricmass.spaces import MetricSpace, discrete, lp, precomputed, scaled_indicator
from metricmass.wasserstein import GRID_FRACTIONS, default_r_grid, grid_endpoints, w1_report

from helpers import (
    dense_escape_indicators,
    dense_matrix,
    dense_farthest_first_net,
    dense_farthest_first_traversal,
    dense_good_turing,
    dense_nearest,
    dense_summaries,
    dense_verify_net,
    dense_within,
    holds_matrix,
    index_spy,
    kernel_spy,
    pool_threads,
    tree_spy,
    triu_r_grid,
    vector_sample,
)

KINDS = ("euclidean", "lp", "discrete", "precomputed", "scaled_indicator")


def symbol_pool(kind, size):
    """Discrete symbols: ``size`` strings or integers, or NaN, -0.0, 0.0
    and ``size`` more floats.  NaN is no symbol's equal, its own included,
    and -0.0 equals 0.0."""
    if kind == "str":
        return np.array([f"s{i}" for i in range(size)])
    if kind == "int":
        return np.arange(size) - 1
    return np.array([np.nan, -0.0, 0.0] + [i + 0.5 for i in range(size)])


def near_symmetric(rng, size):
    """Symmetric small-integer matrix with a zero diagonal, plus 1e-12 on
    random upper-triangle entries: allclose to its transpose, not equal."""
    m = np.triu(rng.integers(0, 4, size=(size, size)).astype(float), k=1)
    m = m + m.T
    return m + np.triu(rng.integers(0, 2, size=(size, size)) * 1e-12, k=1)


def tie_prone_sample(kind, n, rng):
    """Points on small integer lattices, or repeated rows, so many pairs sit
    at equal distances and radii read off the matrix fall exactly on
    d == r."""
    if kind == "euclidean":
        return make_sample(rng.integers(-2, 3, size=(n, 2)).astype(float))
    if kind == "lp":
        return Sample(rng.integers(-2, 3, size=(n, 3)).astype(float), lp(3, 1.0))
    if kind == "discrete":
        # No NaN symbol: it is at distance 1 from itself, so a farthest-first
        # traversal at r < 1 would never cover it.
        pool = symbol_pool(("str", "int")[int(rng.integers(2))], 4)
        return Sample(rng.choice(pool, size=n), discrete())
    if kind == "precomputed":
        size = int(rng.integers(1, 8))
        return Sample(rng.integers(0, size, size=n), precomputed(near_symmetric(rng, size)))
    if kind == "lattice":  # the {0..3}^2 lattice, whose grid windows are ties
        return make_sample(rng.integers(0, 4, size=(n, 2)).astype(float))
    if kind == "duplicated":  # a few distinct rows, each repeated
        rows = rng.normal(size=(int(rng.integers(1, 6)), 2))
        return make_sample(rows[rng.integers(len(rows), size=n)])
    return Sample(rng.integers(0, 5, size=n).astype(float), scaled_indicator(2.0))


def radii_on_ties(sample, rng, count=4):
    """Radii at d == r and d == 2r for distances d of the sample."""
    d = dense_matrix(sample)
    picked = [float(v) for v in rng.choice(d.ravel(), size=count)]
    return [0.0, 0.5, 1.0] + picked + [v / 2 for v in picked]


def assert_matches_dense(sample, radii, dense=None):
    """The sample's summaries and estimates against references read from
    the matrix of ``dense`` (by default the sample itself)."""
    dense = sample if dense is None else dense
    nearest, earlier = dense_summaries(dense)
    assert np.array_equal(sample.nearest_distances(), nearest)
    assert np.array_equal(sample.earlier_distances(), earlier)
    for r in radii:
        assert good_turing(sample, r) == dense_good_turing(dense, r)
        assert np.array_equal(escape_indicators(sample, r),
                              dense_escape_indicators(dense, r))


def r_grid_or_error(fn, sample):
    try:
        return fn(sample)
    except ValueError as exc:
        return str(exc)


def net_verdict(check, sample, net, r):
    """None if the check accepts the net, else the error it raised."""
    try:
        check(sample, net, r)
    except ValueError as exc:  # InvalidNetError is a ValueError
        return type(exc), str(exc)
    return None


def corrupted_nets(net, n, rng):
    """The net without its last point, with a repeated point, with one
    non-net point added, and empty."""
    nets = [net[:-1], net + [net[0]], []]
    others = np.setdiff1d(np.arange(n), net)
    if others.size:
        nets.append(net + [int(rng.choice(others))])
    return nets


BLOCKS = st.sampled_from([1, 7, 64, samples.SUMMARY_BLOCK_ELEMENTS])
ROWS = st.sampled_from([1, 2, 5, samples.SUMMARY_BLOCK_ROWS])
# Pool threads every pass runs on, however small; 1 is the calling thread.
THREADS = st.sampled_from([1, 2, 3])
# 0 lets a pass of the order statistics keep only as many distances as
# there are ranks asked, so a pilot's windows overflow and every bracket
# left over is counted in bit-pattern buckets.
SHARES = st.sampled_from([samples.KEPT_DISTANCES_SHARE, 0.0])


@contextmanager
def small_blocks(block, rows, threads, share=samples.KEPT_DISTANCES_SHARE):
    """Patch the elements and the rows per block of the upper-triangle
    pass, the pool threads of every pass, and the share of n * n distances
    a pass of the order statistics keeps.  Then check that each block held
    at most a thread's budget of entries, or one row, or was a whole n x n
    square that fits ``block``."""
    with mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", block), \
            mock.patch.object(samples, "SUMMARY_BLOCK_ROWS", rows), pool_threads(threads), \
            mock.patch.object(samples, "KEPT_DISTANCES_SHARE", share), \
            kernel_spy(into_blocks=True) as shapes:
        yield
    budget = max(1, block // threads)
    for height, width in shapes:
        assert (height == 1 or height * width <= budget
                or height == width and height * width <= block), (height, width, budget)


# How the windowed order statistics of a sample larger than its pilot end,
# with the full sample's passes each takes: "pilot" runs the pilot's own
# windows; "hit" keeps every positive distance in one window with room for
# them (1 pass); "split" in two windows, split at the pilot's median
# distance, so a rank in the second one is an offset past the first one's
# values (1 pass); "overflow" keeps them in one window with no room, so a
# second pass keeps them (2); "miss" counts below one empty window, which
# no rank falls in, and "none" has no window, so a second pass keeps the
# bracket the counts leave (2).  Each but "pilot" has room for every
# distance in the second pass.
OUTCOMES = st.sampled_from(["pilot", "hit", "split", "overflow", "miss", "none"])
OUTCOME_PASSES = {"hit": 1, "split": 1, "overflow": 2, "miss": 2, "none": 2}
# Points of the pilot: a sample of at most this many is its own pilot.
PILOTS = st.integers(1, 8)


def split_windows(sample, pairs):
    # Computed apart from the sample, which must build no matrix.
    d = sample.distance_rows(slice(None))
    if not (d > 0).any():  # one window, as "hit"
        return [(*samples.ALL_POSITIVE, pairs)]
    middle = float(np.median(d[d > 0]))
    return [(samples.ALL_POSITIVE[0], middle, pairs), (middle, np.inf, pairs)]


@contextmanager
def pilot_outcome(outcome, pilot):
    """Patch the pilot's threshold and, but for "pilot", the windows it
    finds; the real pilot runs either way."""
    tiny = samples.ALL_POSITIVE[0]
    windows = {"hit": lambda sample, pairs: [(*samples.ALL_POSITIVE, pairs)],
               "split": split_windows, "overflow": lambda *args: [(*samples.ALL_POSITIVE, 0)],
               "miss": lambda *args: [(tiny, tiny, 0)], "none": lambda *args: []}
    real, runs = Sample._pilot_windows, []

    def recorded(self, fractions):
        runs.append(self.n)
        return real(self, fractions)

    def found(self, fractions):
        recorded(self, fractions)
        return windows[outcome](self, self.n * (self.n - 1) // 2)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(samples, "PILOT_POINTS", pilot))
        stack.enter_context(mock.patch.object(
            Sample, "_pilot_windows", found if outcome in windows else recorded))
        if outcome in windows:
            stack.enter_context(mock.patch.object(samples, "KEPT_DISTANCES_SHARE", 1.0))
        yield runs


def full_passes(spy, sample) -> int:
    """The summary passes over ``sample`` a spy on ``Sample._summarize`` saw."""
    return sum(call.args[0] is sample for call in spy.call_args_list)


@given(st.sampled_from(KINDS), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       BLOCKS, ROWS, THREADS)
@settings(max_examples=150)
def test_summaries_match_dense_reference(kind, n, seed, block, rows, threads):
    # ``dense`` holds the matrix the references read; ``sample`` streams its
    # blocks from the kernel.  Small blocks split even these samples into
    # many row blocks with a partial last one.
    rng = np.random.default_rng(seed)
    dense = tie_prone_sample(kind, n, rng)
    sample = Sample(dense.points, dense.space)
    radii = radii_on_ties(dense, rng)
    d = dense_matrix(dense)
    with small_blocks(block, rows, threads):
        nearest, earlier = dense_summaries(dense)
        assert np.array_equal(sample.nearest_distances(), nearest)
        assert np.array_equal(sample.earlier_distances(), earlier)
        for r in radii:
            assert good_turing(sample, r) == dense_good_turing(dense, r)
            assert np.array_equal(escape_indicators(sample, r),
                                  dense_escape_indicators(dense, r))
        assert sample.diameter() == float(d.max())
        i, j = (int(v) for v in rng.integers(n, size=2))
        assert sample.distance(i, j) == float(d[i, j])
        assert r_grid_or_error(default_r_grid, sample) == r_grid_or_error(triu_r_grid, dense)
        for r in radii:
            start = int(rng.integers(n))
            net = farthest_first_net(sample, r, start)
            assert net == dense_farthest_first_net(dense, r, start)
            # Every kernel is exactly symmetric, so the net, read by rows,
            # passes the cover check, read by columns, and a corrupted one
            # fails; the verdicts equal the reference's.
            verdict = net_verdict(verify_net, sample, net, r)
            assert verdict is None
            assert verdict == net_verdict(dense_verify_net, dense, net, r)
            for bad in corrupted_nets(net, n, rng):
                verdict = net_verdict(verify_net, sample, bad, r)
                assert verdict is not None
                assert verdict == net_verdict(dense_verify_net, dense, bad, r)
    assert not holds_matrix(sample)


@given(st.sampled_from(KINDS + ("lattice", "duplicated")), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1), BLOCKS, ROWS, THREADS, SHARES, OUTCOMES, PILOTS)
@settings(max_examples=200)
def test_grid_first_then_summaries_match_dense_reference(kind, n, seed, block, rows, threads,
                                                         share, outcome, pilot):
    # The CLI's order: the radius grid's pass keeps the distances of its
    # windows and fills the summaries on the way, so reading them costs no
    # pass.  Every pilot outcome gives the dense reference's grid and order
    # statistics, also at ranks far from the grid's, which its windows miss.
    rng = np.random.default_rng(seed)
    dense = tie_prone_sample(kind, n, rng)
    sample = Sample(dense.points, dense.space)
    radii = radii_on_ties(dense, rng)
    d = dense_matrix(dense)
    upper = d[np.triu_indices(n, k=1)]
    positive = np.sort(upper[upper > 0])
    ranks = np.arange(positive.size)
    with small_blocks(block, rows, threads, share), pilot_outcome(outcome, pilot) as pilots, \
            mock.patch.object(Sample, "_summarize", autospec=True,
                              side_effect=Sample._summarize) as passes:
        assert r_grid_or_error(default_r_grid, sample) == r_grid_or_error(triu_r_grid, dense)
        # The real pilot runs on every sample past its threshold, and its
        # kernel calls keep to the blocks' budget.
        assert pilots == ([n] if n > pilot and kind != "discrete" else [])
        if kind == "discrete":  # symbol counts answer it
            assert not passes.called
        elif n > pilot and positive.size and outcome in OUTCOME_PASSES:
            assert full_passes(passes, sample) == OUTCOME_PASSES[outcome]
        passes.reset_mock()
        assert_matches_dense(sample, radii, dense)
        assert sample.diameter() == float(d.max())
        assert not passes.called
        assert sample.positive_pair_count() == positive.size
        count, select = sample.pair_rank_selector(GRID_FRACTIONS)
        assert count == positive.size
        # A few ranks are selected, not sorted: the grid's, in its windows
        # or their one-value brackets, repeated, and scattered ones; then
        # every rank, sorted, from the buffers the selection reordered.
        picked = np.array(grid_ranks(count) * 2 + rng.integers(count, size=3).tolist()
                          if count else [], dtype=np.int64)
        assert np.array_equal(select(picked), positive[picked])
        assert np.array_equal(select(ranks), positive)
        assert np.array_equal(sample.pair_rank_selector(())[1](ranks), positive[ranks])
    assert not holds_matrix(sample)


def grid_ranks(count):
    """The ranks of ``count`` positive distances the default grid asks."""
    asked = []
    grid_endpoints(count, lambda ranks: asked.extend(ranks) or np.ones(len(ranks)))
    return asked


def edge_sample(kind, n, scale, rng):
    """Repeated points whose distances include 1, 2, 4 and 8, each the first
    double of its binade, at a coordinate scale (1e-310 makes the distances
    subnormal; for precomputed matrices, the scale of the entries, whose
    zeros are -0.0)."""
    coords = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0, 8.0], size=n) * scale
    if kind == "euclidean":
        return make_sample(coords[:, None])
    if kind == "lp":
        return Sample(np.stack([coords, rng.choice([0.0, scale], size=n)], axis=1), lp(2, 1.0))
    if kind == "scaled_indicator":
        return Sample(np.abs(coords), scaled_indicator(1.0))
    size = int(rng.integers(1, 8))
    m = np.triu(rng.choice([0.0, 1.0, 2.0, 4.0], size=(size, size)), k=1) * scale
    m = m + m.T
    return Sample(rng.integers(0, size, size=n), precomputed(np.where(m == 0, -0.0, m)))


@given(st.sampled_from(["euclidean", "lp", "scaled_indicator", "precomputed"]),
       st.integers(1, 40), st.sampled_from([1.0, 0.5, 1e-310, 1e150]),
       st.integers(0, 2 ** 32 - 1), BLOCKS, ROWS, THREADS, SHARES, OUTCOMES, PILOTS)
@settings(max_examples=150)
def test_pair_order_statistics_on_bucket_edges(kind, n, scale, seed, block, rows, threads, share,
                                               outcome, pilot):
    rng = np.random.default_rng(seed)
    dense = edge_sample(kind, n, scale, rng)
    sample = Sample(dense.points, dense.space)
    upper = dense_matrix(dense)[np.triu_indices(n, k=1)]
    positive = np.sort(upper[upper > 0])
    ranks = np.arange(positive.size)
    picked = rng.integers(positive.size, size=4) if positive.size else ranks
    with small_blocks(block, rows, threads, share), pilot_outcome(outcome, pilot):
        assert sample.positive_pair_count() == positive.size
        assert np.array_equal(sample.pair_rank_selector(())[1](ranks), positive)
        assert np.array_equal(sample.pair_rank_selector(())[1](picked), positive[picked])
        assert r_grid_or_error(default_r_grid, sample) == r_grid_or_error(triu_r_grid, dense)
        assert np.array_equal(sample.pair_rank_selector(GRID_FRACTIONS)[1](picked),
                              positive[picked])
    assert not holds_matrix(sample)


@given(st.sampled_from(KINDS + ("lattice",)), st.sampled_from([0, 1, 2, 3, 17, 40]),
       st.booleans(), st.integers(0, 2 ** 32 - 1), THREADS, SHARES)
@settings(max_examples=100)
def test_one_block_threshold(kind, n, fits, seed, threads, share):
    # A sample whose n x n square fits the block budget, exactly or with
    # room, is one kernel call per pass with no streaming; one entry less
    # and the pass streams, in blocks that grow as the triangle narrows.
    # Both match the dense reference.
    rng = np.random.default_rng(seed)
    dense = tie_prone_sample(kind, n, rng)
    nearest, earlier = dense_summaries(dense) if n else (np.empty(0), np.empty(0))
    upper = dense_matrix(dense)[np.triu_indices(n, k=1)]
    positive = np.sort(upper[upper > 0])
    diameter = float(upper.max(initial=0.0))
    plain, counted, ranked = (Sample(dense.points, dense.space) for _ in range(3))
    budget = n * n if fits else n * n - 1
    with small_blocks(max(budget, 0), samples.SUMMARY_BLOCK_ROWS, threads, share), \
            mock.patch.object(samples, "stream_blocks", wraps=samples.stream_blocks) as streams, \
            mock.patch.object(MetricSpace, "kernel", autospec=True,
                              side_effect=MetricSpace.kernel) as kernel:
        assert np.array_equal(plain.nearest_distances(), nearest)
        assert np.array_equal(plain.earlier_distances(), earlier)
        assert plain.diameter() == diameter
        count, select = counted.pair_rank_selector(GRID_FRACTIONS)
        assert count == positive.size
        assert np.array_equal(select(np.arange(positive.size)), positive)
        assert np.array_equal(counted.nearest_distances(), nearest)
        assert np.array_equal(ranked.pair_rank_selector(())[1](np.arange(positive.size)), positive)
        assert ranked.positive_pair_count() == positive.size
    one_block = n * n <= budget
    # Symbol counts answer a discrete sample with no pass.
    passes = n > 0 and kind != "discrete"
    assert streams.called == (not one_block and passes)
    if one_block:
        # The plain summary and two windowed ones, each of which keeps every
        # positive distance of a sample this small.
        assert kernel.call_count == 3 * passes
    assert not any(holds_matrix(s) for s in (plain, counted, ranked))


@given(st.sampled_from(KINDS + ("lattice", "duplicated")), st.integers(1, 40),
       st.sampled_from([1, 2, 26]), st.sampled_from(["fits", "past", "default"]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_stacked_answers_match_dense_reference(kind, n, count, budget, seed):
    # A stack of samples, as a campaign's block of replicates, answers per
    # sample as the dense reference does.  Where n * n fits the budget,
    # exactly or with room, each sample is one n x n kernel call into the
    # stack and nothing streams; one entry past it, each sample answers on
    # its own, with no kernel call past the budget but of one row.  The
    # discrete metric makes no kernel call either way.
    rng = np.random.default_rng(seed)
    # Rows of one drawn sample share its space and its pool of symbols.
    drawn = tie_prone_sample(kind, n * count, rng)
    points = drawn.points.reshape(count, n, *drawn.points.shape[1:])
    stack = [Sample(rows, drawn.space) for rows in points]
    radii = radii_on_ties(stack[0], rng)
    references = [dense_summaries(sample) for sample in stack]
    limit = {"fits": n * n, "past": n * n - 1, "default": samples.SUMMARY_BLOCK_ELEMENTS}[budget]
    with mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", limit), kernel_spy() as shapes, \
            mock.patch.object(samples, "stream_blocks", wraps=samples.stream_blocks) as streams:
        for r in radii:
            earlier, other = samples.stacked_within(drawn.space, points, r)
            assert earlier.shape == other.shape == (count, n)
            for k, (nearest, before) in enumerate(references):
                assert np.array_equal(earlier[k], before <= r)
                assert np.array_equal(other[k], nearest <= r)
    if drawn.symbol_codes is not None:
        assert shapes == []
    elif budget == "past":
        assert all(rows * cols <= limit or rows == 1 for rows, cols in shapes)
    else:
        assert shapes == [(n, n)] * (count * len(radii))
        assert not streams.called


@given(st.sampled_from(["str", "int", "float"]),
       st.one_of(st.integers(1, 40), st.integers(samples.PILOT_POINTS + 1,
                                                 samples.PILOT_POINTS + 64)),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_discrete_summaries_match_dense_kernel(symbols, n, seed):
    # Symbol counts give the summaries, the count of positive pairs and
    # their order statistics as the dense kernel has them, past the pilot's
    # size too, with no distance computed.  Pools of up to n + 1 symbols
    # leave some drawn once.
    rng = np.random.default_rng(seed)
    points = rng.choice(symbol_pool(symbols, int(rng.integers(1, n + 2))), size=n)
    dense = Sample(points, discrete())
    nearest, earlier = dense_summaries(dense)
    upper = dense_matrix(dense)[np.triu_indices(n, k=1)]
    positive = np.sort(upper[upper > 0])
    ranks = rng.integers(positive.size, size=4) if positive.size else np.arange(0)
    sample = Sample(points, discrete())
    with mock.patch.object(MetricSpace, "kernel", side_effect=AssertionError("kernel called")):
        assert np.array_equal(sample.nearest_distances(), nearest)
        assert np.array_equal(sample.earlier_distances(), earlier)
        assert sample.diameter() == float(upper.max(initial=0.0))
        assert sample.positive_pair_count() == positive.size
        count, select = sample.pair_rank_selector(GRID_FRACTIONS)
        assert count == positive.size
        assert np.array_equal(select(np.arange(count)), positive)
        assert np.array_equal(sample.pair_rank_selector(())[1](ranks), positive[ranks])
        with pytest.raises(IndexError):
            select([count])
        assert r_grid_or_error(default_r_grid, sample) == r_grid_or_error(triu_r_grid, dense)
        for r in (0.0, 0.5, 1.0):
            assert good_turing(sample, r) == dense_good_turing(dense, r)
            assert np.array_equal(escape_indicators(sample, r),
                                  dense_escape_indicators(dense, r))


# Vector samples the neighbour index answers on, and their norms (None is
# euclidean).
SHAPES = st.sampled_from(["lattice", "duplicated", "normal"])
NORMS = st.sampled_from([None, 1.0, 1.5, 2.0, math.inf])
# Candidates per point: one or two slots fill with a point itself and its
# duplicates, so most rows go to the kernel.
NEIGHBOURS = st.sampled_from([1, 2, samples.NEIGHBOURS])


@given(SHAPES, NORMS, st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 7, 64]), NEIGHBOURS, THREADS)
@settings(max_examples=150)
def test_index_answers_match_dense_reference(shape, p, n, seed, block, k, threads):
    # A block of 64 entries keeps samples and nets of up to 8 points on the
    # summary pass; past it they take the index.  Radii at d == r and
    # d == 2r put candidates between the index's two radii, whose rows the
    # kernel decides.  Every kernel call holds one row or at most a block.
    rng = np.random.default_rng(seed)
    dense = vector_sample(shape, p, n, rng)
    queries = np.concatenate([vector_sample(shape, p, 10, rng).points,
                              vector_sample("lattice", p, 10, rng).points / 2])
    query_nearest = dense_nearest(dense, queries, 1)[:, 0]
    d = dense_matrix(dense)
    radii = radii_on_ties(dense, rng)
    # And radii one double below a distance, which the index's candidates
    # reach but the kernel's d <= r does not.
    radii += [float(np.nextafter(r, 0)) for r in radii[3:] if r > 0]
    with mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", block), \
            mock.patch.object(samples, "NEIGHBOURS", k), pool_threads(threads), \
            index_spy() as built, kernel_spy() as calls:
        for r in radii:
            sample = Sample(dense.points, dense.space)
            # Questions at one radius share the sample's one index, and a
            # net check builds one over the net.
            with tree_spy() as trees:
                for got, expected in zip(sample.within(r), dense_within(dense, r)):
                    assert np.array_equal(got, expected)
                assert np.array_equal(sample.covers(queries, r), query_nearest <= r)
            assert len(trees) <= 1
            picks = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            apart = d[np.ix_(picks, picks)][np.triu_indices(len(picks), k=1)] > r
            assert is_r_separated(sample, picks, r) == bool(apart.all())
            net = dense_farthest_first_net(dense, r)
            for candidate in [net] + corrupted_nets(net, n, rng):
                with tree_spy() as trees:
                    assert (net_verdict(verify_net, sample, candidate, r)
                            == net_verdict(dense_verify_net, dense, candidate, r))
                assert len(trees) <= 1
            assert not holds_matrix(sample)
        # One sample asked at every radius, down to 0, where no index is
        # built, keeps the index of its last radius only for that radius.
        sample = Sample(dense.points, dense.space)
        for r in sorted(radii, reverse=True):
            for got, expected in zip(sample.within(r), dense_within(dense, r)):
                assert np.array_equal(got, expected)
    assert all(rows == 1 or rows * cols <= block for rows, cols in calls)
    if n * n > block and d.max() > 0:
        assert any(built)


@pytest.mark.parametrize("p", [None, 1.0, 1.5, 2.0, math.inf])
@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_extreme_coordinates_keep_the_dense_results(p, scale):
    # The k-d tree sums powers of coordinate differences.  Where the
    # coordinates' extent or r raised to p would leave [2^-900, 2^900], it
    # is not built, so the summary pass answers and raises as it does
    # without an index; the 2-norm of these points always leaves it.
    rng = np.random.default_rng(0)
    dense = vector_sample("lattice", p, 30, rng)
    radii = [0.5, 1.0] + [scale * r for r in radii_on_ties(dense, rng) if r > 0]
    points = dense.points * scale
    queries = rng.integers(-2, 3, size=(10, 2)) * scale / 2

    def answers(block):
        with mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", block):
            got = []
            for r in radii:
                sample = Sample(points, dense.space)
                try:
                    got.append((*sample.within(r), sample.covers(queries, r),
                                net_verdict(verify_net, sample, list(range(0, 30, 4)), r)))
                except ValueError as exc:
                    got.append(str(exc))
            return got

    with index_spy() as built:
        fast = answers(64)
    slow = answers(30 * 30)
    assert len(fast) == len(slow)
    for got, expected in zip(fast, slow):
        assert type(got) is type(expected)
        if isinstance(got, str):
            assert got == expected == "pairwise distances must be finite"
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got[:3], expected[:3]))
            assert got[3] == expected[3]
    if p == 2.0 or p is None:
        assert built and not any(built)


@pytest.mark.parametrize("bad", ["nan", "overflow"])
@pytest.mark.parametrize("ranked", [False, True])
@pytest.mark.parametrize("spare", [0, 1])
def test_non_finite_distances_raise_on_both_paths(bad, ranked, spare):
    # spare 0: the square fills the budget, one kernel call; spare 1: one
    # entry less, so the pass streams two row blocks.
    n = 12
    if bad == "nan":
        space = precomputed(1.0 - np.eye(n))
        space.matrix[3, 7] = space.matrix[7, 3] = np.nan
        sample = Sample(np.arange(n), space)
    else:
        # Finite points whose squared differences overflow.
        sample = make_sample(np.arange(n, dtype=float)[:, None] * 1e200)
    # The pass that keeps the distances in ranges raises also past a pilot,
    # which meets the bad distances first.
    for pilot in (samples.PILOT_POINTS, 1) if ranked else (samples.PILOT_POINTS,):
        with mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", n * n - spare), \
                mock.patch.object(samples, "PILOT_POINTS", pilot), \
                pytest.raises(ValueError, match="pairwise distances must be finite"):
            if ranked:
                sample.pair_rank_selector(GRID_FRACTIONS)
            else:
                sample.nearest_distances()


@pytest.mark.parametrize("dim, high, n", [
    pytest.param(1, 50, 300, id="1"), pytest.param(2, 4, 300, id="2"),
    pytest.param(1, 10 ** 6, 400, id="1-wide"), pytest.param(3, 10 ** 6, 400, id="3-wide")])
def test_midpoint_cuts_end_within_one_pass_per_distinct_distance(dim, high, n):
    # A pilot that finds no window, and a budget of the four ranks asked,
    # keep no bracket whole, so every bracket is counted in at most 2^10
    # buckets of its bit patterns, and each pass narrows a rank's bracket
    # 1024-fold: the 2^63 patterns of the positive doubles end in one-value
    # buckets within 8 passes, whatever the values, and integers below 10^6
    # much sooner.  On these inputs that also stays within one pass per
    # distinct distance, as the midpoint cuts it replaced did.
    rng = np.random.default_rng(0)
    dense = make_sample(rng.integers(0, high, size=(n, dim)).astype(float))
    upper = dense_matrix(dense)[np.triu_indices(n, k=1)]
    positive = np.sort(upper[upper > 0])
    ranks = [0, positive.size // 3, positive.size // 2, positive.size - 1]
    sample = Sample(dense.points, dense.space)
    with mock.patch.object(samples, "PILOT_POINTS", 1), \
            mock.patch.object(Sample, "_pilot_windows", lambda self, fractions: []), \
            mock.patch.object(samples, "KEPT_DISTANCES_SHARE", 0.0), \
            mock.patch.object(Sample, "_summarize", autospec=True,
                              side_effect=Sample._summarize) as passes:
        assert np.array_equal(sample.pair_rank_selector(())[1](ranks), positive[ranks])
    assert full_passes(passes, sample) <= min(8, 1 + np.unique(positive).size)


# Seeds of five tight clusters, 2-D on the 1-norm and 3-D euclidean, whose
# windows held more distances than 1/16 over their pilot counts.
CLUSTER_SEEDS = [(lp(2, 1.0), seed) for seed in (35, 48, 72, 127, 131, 133, 154)] + [
    (None, seed) for seed in (43, 126, 130, 132, 175)]


@pytest.mark.parametrize("shape", ["sorted", "repeated", "clusters"])
def test_grid_takes_one_pass_past_the_pilot(shape):
    # The pilot puts every row against random columns of its own, in
    # strided groups, so input sorted along a line, or each point repeated
    # ten times in a row, still finds the grid's ranks inside its windows,
    # and sizes each window's buffer by its pilot count plus as many errors
    # of it, so tight clusters fit theirs: every seed takes the one summary
    # pass, and equals the dense grid.
    n = 1200
    cases = CLUSTER_SEEDS if shape == "clusters" else [(None, seed) for seed in range(25)]
    for space, seed in cases:
        rng = np.random.default_rng(seed)
        if shape == "sorted":
            points = np.sort(rng.normal(size=n))[:, None]
        elif shape == "repeated":
            points = np.repeat(rng.normal(size=(n // 10, 3)), 10, axis=0)
        else:
            dim = 3 if space is None else space.dim
            centres = rng.normal(size=(5, dim)) * 5
            points = centres[rng.integers(5, size=n)] + rng.normal(size=(n, dim)) * 0.3
        sample = make_sample(points, space)
        with mock.patch.object(Sample, "_summarize", autospec=True,
                               side_effect=Sample._summarize) as passes:
            grid = default_r_grid(sample)
        assert full_passes(passes, sample) == 1, seed
        assert grid == triu_r_grid(sample)


def test_pair_order_statistics_reject_ranks_out_of_range():
    sample = make_sample(np.array([[0.0], [1.0], [3.0]]))
    assert list(sample.pair_rank_selector(())[1]([2, 0, 1])) == [3.0, 1.0, 2.0]
    for ranks in ([3], [-1]):
        with pytest.raises(IndexError):
            sample.pair_rank_selector(())[1](ranks)


def test_grid_endpoints_follow_numpy_percentile_and_median():
    rng = np.random.default_rng(0)
    # Counts 51, 151, ... put the virtual index exactly half way, where the
    # two interpolation forms can round differently; repeat them.
    counts = list(range(1, 3001)) + [51, 151, 251, 351] * 25
    integral = 0
    for i, count in enumerate(counts):
        values = rng.lognormal(0.0, 3.0, size=count)
        if i % 2:
            values = np.round(values, 1)  # ties
        ordered = np.sort(values)
        lo, hi = grid_endpoints(count, lambda ranks: ordered[ranks])
        assert lo == float(np.percentile(values, 1))
        assert hi == float(np.median(values))
        integral += float((count - 1) * np.true_divide(1, 100)).is_integer()
    # Counts whose virtual index is a whole number, such as 101.
    assert integral >= 30


@given(st.sampled_from(KINDS), st.integers(1, 30), st.integers(0, 2 ** 32 - 1),
       BLOCKS, ROWS, THREADS)
@settings(max_examples=60)
def test_prefix_net_verdicts_match_dense_reference(kind, n, seed, block, rows, threads):
    # Every prefix of a traversal order, of the order with a repeated pick,
    # and of random orders with and without repeats, at radii on ties.
    rng = np.random.default_rng(seed)
    dense = tie_prone_sample(kind, n, rng)
    sample = Sample(dense.points, dense.space)
    radii = radii_on_ties(dense, rng)
    order = farthest_first_traversal(dense, min(radii), int(rng.integers(n)))[0]
    orders = [order, order + [order[0]],
              [int(i) for i in rng.permutation(n)],
              [int(i) for i in rng.integers(n, size=int(rng.integers(1, n + 2)))]]
    with small_blocks(block, rows, threads):
        for bad in orders:
            checks = [(k, r) for k in range(len(bad) + 1) for r in radii]
            got = [None if error is None else (type(error), str(error))
                   for error in prefix_net_errors(sample, bad, checks)]
            assert got == [net_verdict(dense_verify_net, dense, bad[:k], r) for k, r in checks]
    assert not holds_matrix(sample)


def test_sweep_verifies_every_net_in_one_pass():
    sample = make_sample(np.random.default_rng(0).normal(size=(200, 2)))
    with mock.patch.object(wasserstein, "prefix_net_errors", wraps=prefix_net_errors) as spy, \
            mock.patch.object(wasserstein, "verify_net", side_effect=AssertionError("per net")):
        reports = w1_report(sample)
    assert spy.call_count == 1
    assert sum(rep.upper_b is not None for rep in reports) == len(spy.call_args.args[2])


# How often a farthest-first traversal drops the points within r of its
# picks: by default, which these samples' few picks never reach, or after
# every pick or every third, whatever share of those it tracks they are.
DROPS = st.sampled_from([(samples.TRAVERSAL_DROP_PICKS, samples.TRAVERSAL_DROP_SHARE),
                         (1, 0.0), (3, 0.0)])


@given(st.sampled_from(KINDS + ("lattice", "duplicated")), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1), BLOCKS, DROPS)
@settings(max_examples=150)
def test_one_traversal_serves_every_radius(kind, n, seed, block, drop):
    # A traversal that drops the points within r of its picks has the dense
    # reference's order and covering radii, bit for bit, but the last,
    # which lies between the reference's final covering radius and r.
    # Each radius's net is a prefix of one traversal run to the smallest
    # radius, also at radii equal to a recorded covering radius, where the
    # per-radius loop stops exactly at d == r.
    rng = np.random.default_rng(seed)
    dense = tie_prone_sample(kind, n, rng)
    sample = Sample(dense.points, dense.space)
    radii = radii_on_ties(dense, rng)
    start = int(rng.integers(n))
    with mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", block), \
            mock.patch.object(samples, "TRAVERSAL_DROP_PICKS", drop[0]), \
            mock.patch.object(samples, "TRAVERSAL_DROP_SHARE", drop[1]):
        for r in radii:
            order, covering = farthest_first_traversal(sample, r, start)
            dense_order, dense_covering = dense_farthest_first_traversal(dense, r, start)
            assert order == dense_order
            assert np.array_equal(covering[:-1], dense_covering[:-1])
            assert dense_covering[-1] <= covering[-1] <= r
        order, covering = farthest_first_traversal(sample, min(radii), start)
        assert covering[-1] <= min(radii) < covering[:-1].min(initial=np.inf)
        for r in radii + [float(c) for c in covering]:
            net = net_prefix(order, covering, r)
            assert net == farthest_first_net(sample, r, start)
            assert net == dense_farthest_first_net(dense, r, start)
    assert not holds_matrix(sample)


@given(st.sampled_from(KINDS), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       BLOCKS, ROWS, THREADS)
@settings(max_examples=60)
def test_sweep_nets_match_dense_per_radius_nets(kind, n, seed, block, rows, threads):
    rng = np.random.default_rng(seed)
    dense = tie_prone_sample(kind, n, rng)
    sample = Sample(dense.points, dense.space)
    radii = [r for r in radii_on_ties(dense, rng) if r > 0]
    with small_blocks(block, rows, threads):
        reports = w1_report(sample, radii)
    scale = reports[0].scale
    normalized = dense.with_distances_scaled(1.0 / scale) if scale != 1.0 else dense
    for rep in reports:
        assert list(rep.net_indices) == dense_farthest_first_net(normalized, rep.r / scale)
    assert not holds_matrix(sample)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=4)
def test_summaries_span_several_row_blocks(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1100, 1400))
    assert n * n > 1.1 * samples.SUMMARY_BLOCK_ELEMENTS
    dense = make_sample(rng.integers(0, 12, size=(n, 2)).astype(float))
    sample = Sample(dense.points, dense.space)
    assert default_r_grid(sample) == triu_r_grid(dense)
    r = float(default_r_grid(sample)[3])
    net = farthest_first_net(sample, r)
    assert net == dense_farthest_first_net(dense, r)
    verify_net(sample, net, r)
    assert not holds_matrix(sample)
    assert_matches_dense(sample, radii_on_ties(dense, rng))


def test_points_exactly_at_radius_are_inside():
    # Closed balls: d == r is neither isolated nor escaping.
    sample = make_sample(np.array([[0.0], [1.0], [3.0], [5.0]]))
    assert list(sample.nearest_distances()) == [1.0, 1.0, 2.0, 2.0]
    assert list(sample.earlier_distances()) == [np.inf, 1.0, 2.0, 2.0]
    assert good_turing(sample, 2.0) == 0.0
    assert good_turing(sample, 1.5) == 0.5
    assert list(escape_indicators(sample, 2.0)) == [1.0, 0.0, 0.0, 0.0]
    assert list(escape_indicators(sample, 1.5)) == [1.0, 0.0, 1.0, 1.0]


def test_near_symmetric_matrix_is_read_symmetrised():
    # The input's d(1, 0) exceeds its d(0, 1) by 1e-12.  The space stores
    # their average, which both orders read, so points 0 and 1 are isolated
    # together or not at all.
    m = np.array([[0.0, 1.0, 2.0],
                  [1.0 + 1e-12, 0.0, 3.0],
                  [2.0, 3.0, 0.0]])
    sample = Sample(np.arange(3), precomputed(m))
    mid = (1.0 + (1.0 + 1e-12)) / 2
    assert sample.distance(0, 1) == sample.distance(1, 0) == mid
    assert list(sample.nearest_distances()) == [mid, mid, 2.0]
    assert good_turing(sample, 1.0) == 1.0
    assert good_turing(sample, mid) == pytest.approx(1 / 3)
    assert list(escape_indicators(sample, 1.0)) == [1.0, 1.0, 1.0]
    assert list(escape_indicators(sample, mid)) == [1.0, 0.0, 1.0]
    assert_matches_dense(sample, [1.0, mid, 2.0])


def test_sweep_nets_on_near_symmetric_matrix_pass_their_check():
    # The hypothesis case (precomputed, n = 6, seed 0) where the greedy net,
    # read by rows, failed the cover check, read by columns, of the input's
    # transpose.
    rng = np.random.default_rng(0)
    dense = tie_prone_sample("precomputed", 6, rng)
    radii = [r for r in radii_on_ties(dense, rng) if r > 0]
    sample = Sample(dense.points, dense.space)
    reports = w1_report(sample, radii)
    scale = reports[0].scale
    normalized = sample.with_distances_scaled(1.0 / scale)
    for rep in reports:
        verify_net(normalized, list(rep.net_indices), rep.r / scale)


@given(st.sampled_from(KINDS), st.integers(2, 30), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60)
def test_subsample_gets_fresh_summaries(kind, n, seed):
    rng = np.random.default_rng(seed)
    sample = tie_prone_sample(kind, n, rng)
    radii = radii_on_ties(sample, rng)
    assert_matches_dense(sample, radii)
    before = (sample.nearest_distances().copy(), sample.earlier_distances().copy(),
              sample.diameter())
    order = rng.permutation(n)[:int(rng.integers(1, n + 1))]
    sub = sample.subsample(order)
    assert_matches_dense(sub, radii)
    fresh = Sample(sample.points[order], sample.space)
    assert np.array_equal(sub.earlier_distances(), fresh.earlier_distances())
    assert sub.diameter() == fresh.diameter()
    assert np.array_equal(sample.nearest_distances(), before[0])
    assert np.array_equal(sample.earlier_distances(), before[1])
    assert sample.diameter() == before[2]


def test_one_pass_serves_every_radius():
    rng = np.random.default_rng(0)
    sample = make_sample(rng.normal(size=(50, 2)))
    with mock.patch.object(Sample, "_summarize", autospec=True,
                           side_effect=Sample._summarize) as spy:
        for r in np.geomspace(0.01, 2.0, 20):
            good_turing(sample, r)
            escape_indicators(sample, r)
    assert spy.call_count == 1


def test_summaries_are_read_only():
    sample = make_sample(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        sample.nearest_distances()[0] = 5.0
    with pytest.raises(ValueError):
        sample.earlier_distances()[1] = 5.0

