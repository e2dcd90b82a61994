import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricmass import separation
from metricmass.distributions import ScaledIndicatorSpec, draw_sample
from metricmass.meb import meb_radius
from metricmass.samples import Sample, make_sample
from metricmass.separation import (
    DEFAULT_CAP,
    eh_upper_from_sample,
    h_clique_relaxed,
    h_exact,
    h_upper_bound,
)
from metricmass.spaces import MetricSpace, discrete, euclidean, lp, precomputed, scaled_indicator

from helpers import h_grid_oracle, reference_h_exact, reference_max_clique, window_graph


def line_sample(*xs):
    return make_sample(np.array(xs, dtype=float)[:, None])


def test_discrete_always_one():
    s = make_sample(np.array(["a", "b", "c", "a"]), discrete())
    # The packing cap settles h = 1 before any n x n matrix is built, and a
    # bad cap fails before one is built too.
    with pytest.raises(ValueError, match="cap"):
        h_exact(s, 0.5, cap=0)
    assert h_exact(s, 0.5).value == 1
    assert s._distances is None
    for r in (0.2, 0.5, 1.0, 3.0):
        for rep in (h_exact(s, r), h_exact(s, r, clique=h_clique_relaxed(s, r))):
            assert rep.value == 1 and rep.certified == "exact"


@pytest.mark.parametrize("r", [0.0, 0.5, float(np.nextafter(1.0, 0.0)), 1.0, 1.5])
@given(draws=st.lists(st.integers(0, 7), min_size=1, max_size=40), strings=st.booleans())
@settings(max_examples=40)
def test_discrete_clique_is_read_from_symbol_codes(r, draws, strings):
    # The clique relaxation of a discrete sample computes no distance, and
    # reports what the search gives on the dense graph: for 1/2 <= r < 1 the
    # last draw of each symbol, and with no edge otherwise the first point.
    symbols = np.array([f"s{v}" for v in draws]) if strings else np.array(draws)
    s = make_sample(symbols, discrete())
    with mock.patch.object(MetricSpace, "kernel", side_effect=AssertionError("kernel called")):
        closed = h_clique_relaxed(s, r)
    _, adj = separation._separation_graph(s, r)
    clique, open_bound = separation._largest_clique(adj, lambda subset: True, s.n)
    assert open_bound is None
    assert closed == separation.SeparationReport(len(clique), separation.UPPER_BOUND,
                                                 separation.CLIQUE_RELAXATION, witness=clique)
    assert closed.value == (len(set(draws)) if 0.5 <= r < 1 else 1)


def test_single_point():
    rep = h_exact(line_sample(4.0), 2.0)
    assert rep.value == 1 and rep.certified == "exact"


def test_pair_in_one_ball():
    rep = h_exact(line_sample(0.0, 1.9), 1.5)
    assert rep.value == 2
    assert rep.certified == "exact"
    assert sorted(rep.witness) == [0, 1]


def test_one_dimension_at_most_two():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        s = make_sample(rng.uniform(0, 1, size=(n, 1)))
        r = float(rng.uniform(0.01, 0.5))
        assert h_exact(s, r).value <= 2


def test_witness_is_genuine():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(3, 15))
        pts = rng.normal(size=(n, 2))
        s = make_sample(pts)
        r = float(rng.uniform(0.3, 1.5))
        rep = h_exact(s, r)
        w = list(rep.witness)
        d = s.distance_matrix()[np.ix_(w, w)]
        iu = np.triu_indices(len(w), k=1)
        assert (d[iu] > r).all()
        assert meb_radius(pts[w]) <= r * (1 + 1e-8)


def test_matches_grid_oracle_euclidean():
    rng = np.random.default_rng(42)
    for _ in range(30):
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(3, 11))
        pts = rng.uniform(size=(n, dim))
        s = make_sample(pts)
        d = s.distance_matrix()
        r = float(np.quantile(d[np.triu_indices(n, 1)], 0.4))
        if r <= 0:
            continue
        assert h_exact(s, r).value == h_grid_oracle(pts, r)


def test_cap_reports_lower_bound():
    # Regular simplex scaled into the window (r, 2r]: all 4 points pairwise
    # sqrt(2) apart and within one ball of radius 1.
    pts = np.eye(4)
    s = make_sample(pts)
    rep = h_exact(s, 1.0, cap=3)
    assert rep.value == 3
    assert rep.certified == "lower_bound"
    full = h_exact(s, 1.0, cap=8)
    assert full.value == 4 and full.certified == "exact"


def test_witness_reaching_clique_bound_is_exact():
    # The simplex again, in the 1-norm (pairwise 2 apart, all within 1 of
    # the origin) and on sample-point centres (the origin is one of them):
    # without the bound both searches are lower bounds, with it h = ω = 4.
    s = Sample(np.vstack([np.zeros(4), np.eye(4)]), lp(4, 1.0))
    clique = h_clique_relaxed(s, 1.0)
    assert clique.value == 4
    for cap in (4, DEFAULT_CAP):
        assert h_exact(s, 1.0, cap=cap).certified == "lower_bound"
        rep = h_exact(s, 1.0, cap=cap, clique=clique)
        assert (rep.value, rep.certified, rep.witness) == (4, "exact", (1, 2, 3, 4))
    assert h_exact(s, 1.0, cap=3, clique=clique).certified == "lower_bound"


def test_clique_bound_must_be_a_clique_report():
    s = line_sample(0.0, 1.9)
    with pytest.raises(ValueError, match="h_clique_relaxed"):
        h_exact(s, 1.5, clique=h_exact(s, 1.5))


def test_clique_bound_saves_feasibility_tests(monkeypatch):
    # A jittered 2-D grid at the benchmark's radius: h reaches ω, and the
    # bounded search skips proving that nothing larger is feasible.
    rng = np.random.default_rng(5)
    cells = np.stack(np.meshgrid(np.arange(14), np.arange(14)), -1).reshape(-1, 2)
    s = make_sample((cells + rng.uniform(size=cells.shape)) / 14)
    calls = 0

    def counting(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        return wrapper

    for name in ("three_point_radius", "meb_radius"):
        monkeypatch.setattr(separation, name, counting(getattr(separation, name)))
    clique = h_clique_relaxed(s, 0.18)
    full = h_exact(s, 0.18)
    unbounded, calls = calls, 0
    bounded = h_exact(s, 0.18, clique=clique)
    assert bounded == full and full.value == clique.value
    assert calls < unbounded


def test_non_euclidean_sample_scan_is_lower_bound():
    m = np.array([
        [0.0, 1.2, 1.2],
        [1.2, 0.0, 1.2],
        [1.2, 1.2, 0.0],
    ])
    s = make_sample([0, 1, 2], precomputed(m))
    rep = h_exact(s, 1.0)
    assert rep.certified == "lower_bound"
    assert rep.value == 1  # no sample point covers a separated pair


def test_hereditary_monotone_under_extension():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(20, 2))
    r = 0.8
    prev = 0
    for n in range(1, 21):
        val = h_exact(make_sample(pts[:n]), r).value
        assert val >= prev
        prev = val


def test_clique_relaxed_discrete_counts_symbols():
    s = make_sample(np.array(["a", "a", "b", "c"]), discrete())
    rep = h_clique_relaxed(s, 0.5)
    assert rep.value == 3
    assert rep.certified == "upper_bound"


def test_clique_relaxed_pair():
    rep = h_clique_relaxed(line_sample(0.0, 1.9), 1.5)
    assert rep.value == 2


def test_clique_relaxed_identical_points():
    rep = h_clique_relaxed(line_sample(5.0, 5.0, 5.0), 1.0)
    assert rep.value == 1


def test_clique_dominates_exact():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 18))
        pts = rng.normal(size=(n, 2)) * 0.7
        s = make_sample(pts)
        r = float(rng.uniform(0.2, 1.2))
        for cap in (2, DEFAULT_CAP):
            assert h_exact(s, r, cap=cap).value <= h_clique_relaxed(s, r).value


def test_pair_just_past_twice_r_is_not_local():
    # d = 2r(1 + 5e-10): the pair's enclosing ball has radius d/2 > r, so h
    # is 1 and stays within its clique upper bound.
    s = line_sample(0.0, 2.0 * (1.0 + 5e-10))
    exact, relaxed = h_exact(s, 1.0), h_clique_relaxed(s, 1.0)
    assert (exact.value, exact.certified) == (1, "exact")
    assert relaxed.value == 1
    pair = line_sample(0.0, 2.0)
    assert h_exact(pair, 1.0).value == h_clique_relaxed(pair, 1.0).value == 2


def test_packing_caps():
    assert euclidean(2).packing_cap == 9
    assert euclidean(3).packing_cap == 27
    assert lp(3, 1.5).packing_cap == 512
    assert discrete().packing_cap == 1
    assert scaled_indicator(2.0).packing_cap is None
    assert precomputed([[0.0]]).packing_cap is None


def test_h_within_packing_cap():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 14))
        pts = rng.normal(size=(n, 2)) * 0.4
        s = make_sample(pts)
        rep = h_exact(s, float(rng.uniform(0.2, 1.0)))
        assert rep.value <= s.space.packing_cap


def test_indicator_embedding_h_at_most_five():
    spec = ScaledIndicatorSpec(p=2.0)
    for seed in range(15):
        s = draw_sample(spec, 25, seed)
        for r in (0.2, 0.5, 1.0):
            assert h_exact(s, r).value <= 5


def test_h_upper_tail_against_twice_mean():
    # Frequency of h exceeding twice its mean by t stays under exp(-6t/7),
    # with the mean taken from an independent larger run.
    from metricmass.distributions import LowdimEmbeddingSpec
    from metricmass.samples import Sample

    spec = LowdimEmbeddingSpec(2, 2)
    n, r = 25, 0.15

    def run(rng, reps):
        return np.array([h_exact(Sample(spec.sample(n, rng), spec.space()), r).value
                         for _ in range(reps)])

    e_h = run(np.random.default_rng(31), 8000).mean()
    h_vals = run(np.random.default_rng(32), 2000)
    for t in (1.0, 2.0):
        freq = (h_vals - 2 * e_h > t).mean()
        bound = math.exp(-6.0 * t / 7.0)
        assert freq <= bound + 3 * math.sqrt(bound * (1 - bound) / len(h_vals)) + 1e-3


def test_eh_upper_examples():
    assert eh_upper_from_sample(1, math.exp(-1)) == pytest.approx((1 + math.sqrt(2)) ** 2)
    assert eh_upper_from_sample(4, math.exp(-2)) == pytest.approx(16.0)
    assert eh_upper_from_sample(1, 1 - 1e-12) == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(ValueError):
        eh_upper_from_sample(0, 0.5)
    with pytest.raises(ValueError):
        eh_upper_from_sample(2, 1.5)


@pytest.mark.parametrize("source, cap, expected", [("h", None, 2), ("clique", None, 4),
                                                    ("packing_cap", 3, 3)])
def test_h_upper_bound_sources(source, cap, expected, monkeypatch):
    # h is exact on the line; on the 1-norm sample h = 3 is only a lower
    # bound while ω = 4, so the bound is ω, or a packing cap below ω
    # (patched in: the built-in caps exceed ω on small samples).
    if cap is not None:
        monkeypatch.setattr(MetricSpace, "packing_cap", property(lambda self: cap))
    if source == "h":
        sample = line_sample(0.0, 0.3, 0.6)
    else:
        rng = np.random.default_rng(3)
        sample = make_sample([rng.uniform(size=(40, 2)) for _ in range(2)][1], lp(2, 1.0))
    clique = h_clique_relaxed(sample, 0.2)
    h = h_exact(sample, 0.2, clique=clique)
    assert (h.certified == "exact") == (source == "h")
    assert h_upper_bound(h, clique, sample.space) == (expected, source)


REFERENCE_KINDS = ("euclidean", "lp", "precomputed", "scaled_indicator")


def metric_on_tie_prone_sample(kind, n, rng):
    """Small samples on integer lattices (or a shortest-path metric on a
    small weighted graph), so pairs sit at equal distances."""
    if kind == "euclidean":
        return make_sample(rng.integers(-2, 3, size=(n, 2)).astype(float))
    if kind == "lp":
        return Sample(rng.integers(-2, 3, size=(n, 2)).astype(float), lp(2, 1.0))
    if kind == "precomputed":
        size = int(rng.integers(1, 8))
        w = rng.integers(1, 4, size=(size, size)).astype(float)
        m = np.minimum(w, w.T)
        np.fill_diagonal(m, 0.0)
        for k in range(size):  # Floyd-Warshall: a genuine metric
            m = np.minimum(m, m[:, [k]] + m[[k], :])
        return Sample(rng.integers(0, size, size=n), precomputed(m))
    return Sample(rng.integers(0, 5, size=n).astype(float), scaled_indicator(2.0))


def witness_pairs(sample, rep):
    w = list(rep.witness)
    assert len(w) == rep.value and w == sorted(set(w))
    return sample.distance_matrix()[np.ix_(w, w)][np.triu_indices(len(w), k=1)]


def assert_genuine_witnesses(sample, r, h, clique):
    pairs = witness_pairs(sample, clique)
    assert ((pairs > r) & (pairs <= 2.0 * r)).all()
    assert (witness_pairs(sample, h) > r).all()
    w = list(h.witness)
    if sample.space.kind == "euclidean":
        assert meb_radius(sample.points[w]) <= r * (1 + 1e-9)
    else:
        assert (sample.distance_matrix()[:, w].max(axis=1) <= r).any()


@given(st.sampled_from(REFERENCE_KINDS), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200)
def test_searches_match_references(kind, n, seed):
    # Radii read off the matrix, and halves of its entries, put pairs
    # exactly at d == r and at d == 2r.
    rng = np.random.default_rng(seed)
    sample = metric_on_tie_prone_sample(kind, n, rng)
    values = rng.choice(sample.distance_matrix().ravel(), size=3)
    for r in [0.0, 1.0] + [float(v) for v in values] + [float(v) / 2.0 for v in values]:
        clique = h_clique_relaxed(sample, r)
        ref_clique = reference_max_clique(window_graph(sample, r))
        assert clique.witness == tuple(sorted(ref_clique))
        assert (clique.certified, clique.method) == ("upper_bound", "clique_relaxation")
        uncapped = reference_h_exact(sample, r)[0]
        for cap in (1, 2, uncapped, uncapped + 1, DEFAULT_CAP):
            h = h_exact(sample, r, cap=cap)
            assert (h.value, h.certified, h.method) == reference_h_exact(sample, r, cap)[:3]
            assert h.value <= clique.value
            assert_genuine_witnesses(sample, r, h, clique)
            # The search stopped at the clique bound returns the full
            # search's witness, and a witness of size ω proves h exact.
            bounded = h_exact(sample, r, cap=cap, clique=clique)
            assert (bounded.value, bounded.method, bounded.witness) == \
                (h.value, h.method, h.witness)
            reaches = h.value == clique.value and kind != "precomputed"
            assert bounded.certified == ("exact" if reaches else h.certified)


@given(st.integers(1, 60), st.floats(0.05, 0.6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300)
def test_bitset_search_matches_reference_on_random_graphs(n, density, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=1)
    adj = upper | upper.T
    assert separation._largest_clique(adj, lambda subset: True, n) == \
        (tuple(sorted(reference_max_clique(adj))), None)


@given(st.sampled_from(REFERENCE_KINDS), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, 7, 64]))
@settings(max_examples=200)
def test_searches_out_of_budget_stay_one_sided(kind, n, seed, budget):
    # A search that runs out of budget keeps a genuine witness, bounds ω
    # from above and h from below, and calls h exact only when it is.
    rng = np.random.default_rng(seed)
    sample = metric_on_tie_prone_sample(kind, n, rng)
    values = rng.choice(sample.distance_matrix().ravel(), size=3)
    for r in [0.0, 1.0] + [float(v) for v in values] + [float(v) / 2.0 for v in values]:
        omega = len(reference_max_clique(window_graph(sample, r)))
        h_ref = reference_h_exact(sample, r)[0]
        with mock.patch.object(separation, "CLIQUE_NODE_BUDGET", budget):
            clique = h_clique_relaxed(sample, r)
            h = h_exact(sample, r, clique=clique)
        assert (clique.certified, clique.method) == ("upper_bound", "clique_relaxation")
        assert len(clique.witness) <= omega <= clique.value
        w = list(clique.witness)
        pairs = sample.distance_matrix()[np.ix_(w, w)][np.triu_indices(len(w), k=1)]
        assert ((pairs > r) & (pairs <= 2.0 * r)).all()
        assert h.value <= h_ref and h.value == len(h.witness)
        if h.certified == "exact":
            assert h.value == h_ref


def test_clique_search_stops_at_its_budget():
    # 20-D normal points at r = median pair distance / 1.6: without a
    # budget the relaxation searched for over a minute at n = 200.
    rng = np.random.default_rng(0)
    sample = make_sample(rng.normal(size=(200, 20)))
    d = sample.distance_matrix()
    r = float(np.median(d[np.triu_indices(200, k=1)])) / 1.6
    start = time.perf_counter()
    clique = h_clique_relaxed(sample, r)
    h = h_exact(sample, r, clique=clique)
    assert time.perf_counter() - start < 60
    assert clique.value > len(clique.witness)
    assert h.certified == "lower_bound"


def test_nan_radius_rejected():
    s = make_sample(np.array([[0.0], [1.0], [3.0]]))
    for fn in (h_exact, h_clique_relaxed):
        with pytest.raises(ValueError, match="radius"):
            fn(s, math.nan)
