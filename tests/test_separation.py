import math
import time
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metricmass import separation
from metricmass.distributions import ScaledIndicatorSpec, draw_sample
from metricmass.meb import meb_radius
from metricmass.samples import NEIGHBOUR_SLACK, Sample, make_sample
from metricmass.separation import (
    DEFAULT_CAP,
    eh_upper_from_sample,
    h_clique_relaxed,
    h_exact,
    h_upper_bound,
)
from metricmass.spaces import MetricSpace, discrete, euclidean, lp, precomputed, scaled_indicator

from helpers import (
    bitsets,
    h_grid_oracle,
    reference_bbmc,
    reference_h_exact,
    reference_max_clique,
    window_graph,
)


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
    _, nbrs, _ = separation._window(s, r, s.n)
    clique, open_bound = separation._largest_clique(nbrs, lambda subset: True, s.n)
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


@pytest.mark.parametrize("space, cap", [
    (euclidean(1), 2), (lp(1, 1.0), 2), (lp(1, 1.5), 2), (lp(1, math.inf), 2),
    (lp(2, math.inf), 4), (lp(3, math.inf), 8), (lp(2, 1.0), 4),
    (scaled_indicator(1.0), 2), (scaled_indicator(1.5), 3), (scaled_indicator(2.0), 4),
    (scaled_indicator(3.0), 8),
    (lp(3, 1.0), None), (lp(2, 1.5), None), (euclidean(2), None), (discrete(), None),
    (precomputed([[0.0]]), None)])
def test_clique_caps(space, cap):
    assert space.clique_cap == cap


CAPPED_SPACES = (euclidean(1), lp(1, 1.5), lp(2, math.inf), lp(3, math.inf), lp(2, 1.0),
                 scaled_indicator(1.0), scaled_indicator(1.5), scaled_indicator(2.0),
                 scaled_indicator(3.0))


def capped_sample_and_radii(space, n, lattice, seed):
    """A sample of a capped space kind, on an integer lattice or of floats,
    and radii: three matrix entries, their halves, and three random ones."""
    rng = np.random.default_rng(seed)
    shape = (n,) if space.kind == "scaled_indicator" else (n, space.dim)
    points = rng.integers(0, 9, size=shape).astype(float) if lattice else \
        rng.uniform(0.0, 3.0, size=shape)
    sample = Sample(points, space)
    values = rng.choice(sample.distance_matrix().ravel(), size=3)
    radii = [float(v) for v in values] + [float(v) / 2.0 for v in values] + \
        rng.uniform(0.05, 2.0, size=3).tolist()
    return sample, radii


def guarded_ceiling(sample, r):
    """The space's clique ceiling, or None where a distance lies within a
    relative ``NEIGHBOUR_SLACK`` of r or 2r and rounding may decide the
    window."""
    d = sample.distance_matrix()
    if any(np.isclose(d, edge, rtol=NEIGHBOUR_SLACK, atol=0.0).any() for edge in (r, 2.0 * r)):
        return None
    return sample.space.clique_cap


def alone_certificate(ceiling, value, certified):
    """The certificate of an h search without the clique report whose
    reference (with no ceiling) is ``value`` and ``certified``: exact where
    the value reaches the guarded ``ceiling``."""
    return "exact" if ceiling is not None and value >= ceiling else certified


@given(st.sampled_from(CAPPED_SPACES), st.integers(1, 16), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(lp(1, 1.5), 4, True, 1)
@settings(max_examples=300)
def test_window_cliques_stay_within_clique_caps(space, n, lattice, seed):
    # Random radii, and on integer lattices radii read off the matrix and
    # halves of its entries, which put pairs exactly at d == r and d == 2r.
    # The ceilings hold in exact arithmetic.  A rounded distance may cross
    # r or 2r, but then it lies within the searches' slack, and they keep
    # their own stops: on the 1.5-norm line of the example the gap 4 reads
    # 4 - 2^-51, and at half of that, r = 2 - 2^-52, the gaps 2, 2 and 4
    # of three points all fall in the window.
    sample, radii = capped_sample_and_radii(space, n, lattice, seed)
    cap = space.clique_cap
    for r in radii:
        omega = len(reference_max_clique(window_graph(sample, r)))
        assert omega <= cap or separation._window(sample, r, cap + 1)[2] > cap


@given(st.sampled_from(CAPPED_SPACES), st.integers(1, 16), st.booleans(),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 7, 64]))
@settings(max_examples=300)
def test_h_is_exact_where_its_witness_reaches_a_proven_bound(space, n, lattice, seed,
                                                             budget):
    # In budget or out of it: where h alone stops at the guarded ceiling, it
    # is the report h gets given the relaxation, and exact.  A report is
    # exact only where its witness reaches a proven bound on ω (the guarded
    # ceiling alone, the relaxation's value given it), or, on the line,
    # where the reference is exact, with the reference's value.
    sample, radii = capped_sample_and_radii(space, n, lattice, seed)
    for r in radii:
        ceiling = guarded_ceiling(sample, r)
        value, certified, _, _ = reference_h_exact(sample, r)
        with mock.patch.object(separation, "CLIQUE_NODE_BUDGET", budget):
            clique = h_clique_relaxed(sample, r)
            alone, given = h_exact(sample, r), h_exact(sample, r, clique=clique)
        if ceiling is not None and alone.value == ceiling:
            assert given == alone and alone.certified == "exact"
        for h, bound in ((alone, ceiling), (given, clique.value)):
            if certified == "exact":
                assert h.certified == "lower_bound" or h.value == value
            else:
                assert (h.certified == "exact") == (bound is not None and h.value >= bound)


def spy_on_stops(monkeypatch):
    """The ``stop`` of every clique search from here on, in call order."""
    stops = []
    search = separation._largest_clique

    def spy(nbrs, feasible, stop):
        stops.append(stop)
        return search(nbrs, feasible, stop)

    monkeypatch.setattr(separation, "_largest_clique", spy)
    return stops


def searched_reports(sample, r, caps=(DEFAULT_CAP,)):
    """The clique relaxation, then h at each cap without and with it."""
    clique = h_clique_relaxed(sample, r)
    return [clique] + [h_exact(sample, r, cap=cap, clique=bound)
                       for cap in caps for bound in (None, clique)]


@pytest.mark.parametrize("tie", [None, 2.0, 1.0 + 2.0 ** -31])
def test_clique_ceiling_needs_exact_window_decisions(tie, monkeypatch):
    # At r = 1, a pair exactly at 2r, or within 2^-31 of r, is decided by
    # rounded distances, so the searches keep their own stops there; with
    # neither they stop at the 1-norm plane's ceiling.  Either way the
    # reports are the ones searched without a ceiling.
    points = np.random.default_rng(4).uniform(0.0, 3.0, size=(12, 2))
    if tie is not None:
        points[:2] = [[0.0, 3.5], [tie, 3.5]]
    sample = Sample(points, lp(2, 1.0))
    stops = spy_on_stops(monkeypatch)
    reports = searched_reports(sample, 1.0)
    omega = reports[0].value
    assert stops == ([4, 4, omega] if tie is None else [sample.n, DEFAULT_CAP, omega])
    stops.clear()
    with mock.patch.object(MetricSpace, "clique_cap", None):
        assert searched_reports(sample, 1.0) == reports
    assert stops == [sample.n, DEFAULT_CAP, omega]


def test_clique_ceiling_ends_a_search_the_budget_would_stop():
    # Uniform points in the 1-norm plane: out of budget, the full relaxation
    # reports an open colour bound above its witness; stopped at the ceiling
    # it reaches ω = 4 within the budget, and h = 4 is exact, given it or
    # not, since its witness reaches the ceiling.
    sample = Sample(np.random.default_rng(0).uniform(size=(600, 2)), lp(2, 1.0))
    with mock.patch.object(separation, "CLIQUE_NODE_BUDGET", 2000):
        with mock.patch.object(MetricSpace, "clique_cap", None):
            full = h_clique_relaxed(sample, 0.15)
        clique, h, bounded = searched_reports(sample, 0.15)
    assert full.value > len(full.witness)
    assert clique.value == len(clique.witness) == 4
    assert (h.value, h.certified) == (4, "exact")
    assert bounded == h


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


REFERENCE_KINDS = ("euclidean", "line", "lp", "sup", "precomputed", "scaled_indicator")


def metric_on_tie_prone_sample(kind, n, rng):
    """Small samples on integer lattices (or a shortest-path metric on a
    small weighted graph), so pairs sit at equal distances."""
    if kind == "euclidean":
        return make_sample(rng.integers(-2, 3, size=(n, 2)).astype(float))
    if kind == "line":
        return make_sample(rng.integers(-2, 3, size=(n, 1)).astype(float))
    if kind in ("lp", "sup"):
        p = 1.0 if kind == "lp" else math.inf
        return Sample(rng.integers(-2, 3, size=(n, 2)).astype(float), lp(2, p))
    if kind == "precomputed":
        size = int(rng.integers(1, 8))
        w = rng.integers(1, 4, size=(size, size)).astype(float)
        m = np.minimum(w, w.T)
        np.fill_diagonal(m, 0.0)
        for k in range(size):  # Floyd-Warshall: a genuine metric
            m = np.minimum(m, m[:, [k]] + m[[k], :])
        return Sample(rng.integers(0, size, size=n), precomputed(m))
    return Sample(rng.integers(0, 5, size=n).astype(float), scaled_indicator(2.0))


def tie_prone_radii(sample, rng):
    """0, 1, and three entries of the sample's matrix, each also halved and
    scaled by 0.6."""
    values = rng.choice(sample.distance_matrix().ravel(), size=3).tolist()
    return [0.0, 1.0] + [v * scale for scale in (1.0, 0.5, 0.6) for v in values]


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
    # exactly at d == r and at d == 2r; 0.6 of an entry falls between the
    # lattice's ties, where the searches may stop at the space's ceiling.
    rng = np.random.default_rng(seed)
    sample = metric_on_tie_prone_sample(kind, n, rng)
    for r in tie_prone_radii(sample, rng):
        uncapped = reference_h_exact(sample, r)[0]
        caps = (1, 2, uncapped, uncapped + 1, DEFAULT_CAP)
        reports = searched_reports(sample, r, caps)
        # The ceiling only ends a search that would find nothing larger, and
        # certifies h alone exact where its witness reaches the ceiling.
        ceiling = guarded_ceiling(sample, r)
        with mock.patch.object(MetricSpace, "clique_cap", None):
            ceilingless = searched_reports(sample, r, caps)
        assert [replace(rep, certified=alone_certificate(ceiling, rep.value, rep.certified))
                if k % 2 else rep for k, rep in enumerate(ceilingless)] == reports
        clique = reports[0]
        ref_clique = reference_max_clique(window_graph(sample, r))
        assert clique.witness == tuple(sorted(ref_clique))
        assert (clique.certified, clique.method) == ("upper_bound", "clique_relaxation")
        for cap, h, bounded in zip(caps, reports[1::2], reports[2::2]):
            value, certified, method, _ = reference_h_exact(sample, r, cap)
            assert (h.value, h.certified, h.method) == \
                (value, alone_certificate(ceiling, value, certified), method)
            assert h.value <= clique.value
            assert_genuine_witnesses(sample, r, h, clique)
            # The search stopped at the clique bound returns the full
            # search's witness, and a witness of size ω proves h exact.
            assert (bounded.value, bounded.method, bounded.witness) == \
                (h.value, h.method, h.witness)
            reaches = h.value == clique.value and kind != "precomputed"
            assert bounded.certified == ("exact" if reaches else h.certified)


@given(st.integers(1, 60), st.floats(0.05, 0.6), st.integers(0, 2 ** 32 - 1))
@example(0, 0.05, 0)
@settings(max_examples=300)
def test_bitset_search_matches_reference_on_random_graphs(n, density, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=1)
    adj = upper | upper.T
    assert separation._largest_clique(bitsets(adj), lambda subset: True, n) == \
        (tuple(sorted(reference_max_clique(adj))), None)


def recorded_predicate(forbidden, calls):
    """A hereditary predicate on subsets of range(n): no vertex, pair or
    triple of the subset is in ``forbidden``.  Each subset it is asked
    about is appended to ``calls``."""
    def feasible(subset):
        calls.append(list(subset))
        return not any(frozenset(part) in forbidden
                       for size in (1, 2, 3) for part in combinations(subset, size))
    return feasible


@given(st.integers(0, 60), st.floats(0.05, 0.8), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, 7, 64, separation.CLIQUE_NODE_BUDGET]),
       st.sampled_from(["1", "2", "n"]), st.booleans())
@settings(max_examples=300)
def test_search_loop_matches_the_recursive_search(n, density, seed, budget, stop, hereditary):
    # The same witness and open bound, and the same subsets asked of the
    # predicate in the same order, within the budget and out of it, with a
    # predicate that accepts everything or a random hereditary one.
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=1)
    adj = upper | upper.T
    stop = n if stop == "n" else int(stop)
    forbidden = {frozenset(rng.choice(n, size=size, replace=False).tolist())
                 for size in (1, 2, 2, 3, 3, 3) if hereditary and size <= n for _ in range(n)}
    loop_calls, reference_calls = [], []
    with mock.patch.object(separation, "CLIQUE_NODE_BUDGET", budget):
        got = separation._largest_clique(bitsets(adj), recorded_predicate(forbidden, loop_calls),
                                         stop)
    want = reference_bbmc(adj, recorded_predicate(forbidden, reference_calls), stop, budget)
    assert got == want
    assert loop_calls == reference_calls


@given(st.sampled_from(REFERENCE_KINDS), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, 7, 64]))
@settings(max_examples=200)
def test_searches_out_of_budget_stay_one_sided(kind, n, seed, budget):
    # A search that runs out of budget keeps a genuine witness, bounds ω
    # from above and h from below, and calls h exact only when it is.
    rng = np.random.default_rng(seed)
    sample = metric_on_tie_prone_sample(kind, n, rng)
    for r in tie_prone_radii(sample, rng):
        omega = len(reference_max_clique(window_graph(sample, r)))
        h_ref = reference_h_exact(sample, r)[0]
        with mock.patch.object(separation, "CLIQUE_NODE_BUDGET", budget):
            clique, *hs = searched_reports(sample, r)
        assert (clique.certified, clique.method) == ("upper_bound", "clique_relaxation")
        assert len(clique.witness) <= omega <= clique.value
        w = list(clique.witness)
        pairs = sample.distance_matrix()[np.ix_(w, w)][np.triu_indices(len(w), k=1)]
        assert ((pairs > r) & (pairs <= 2.0 * r)).all()
        for h in hs:
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
