import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from metricmass import samples
from metricmass.samples import (
    InvalidNetError,
    farthest_first_net,
    farthest_first_traversal,
    is_r_separated,
    make_sample,
    sample_from_csv,
    sample_from_json,
    sample_to_csv,
    verify_net,
)
from metricmass.spaces import MetricSpace, discrete, euclidean
from metricmass.wasserstein import default_r_grid

from helpers import pool_threads, run_script


def line_sample(*xs):
    return make_sample(np.array(xs, dtype=float)[:, None])


def test_order_is_preserved():
    s = line_sample(3.0, 1.0, 2.0)
    assert list(s.points[:, 0]) == [3.0, 1.0, 2.0]


def test_distance_cache_round_trip():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 3))
    s = make_sample(pts)
    cached = s.distance_matrix().copy()
    rebuilt = s.space.pairwise_distances(s.points)
    assert (cached == rebuilt).all()


def test_matrix_built_only_on_request():
    s = make_sample(np.random.default_rng(3).normal(size=(60, 2)))
    s.nearest_distances(), s.earlier_distances(), s.diameter()
    default_r_grid(s)
    net = farthest_first_net(s, 0.5)
    verify_net(s, net, 0.5)
    assert s._distances is None
    d = s.distance_matrix()
    assert s._distances is d
    assert s.distance_matrix() is d


def test_distance_reads_one_pair_without_the_matrix():
    s = make_sample(np.random.default_rng(5).normal(size=(3000, 3)))
    pairs = [(0, 1), (2999, 7), (-1, 0), (5, 5)]
    got = [s.distance(i, j) for i, j in pairs]
    assert s._distances is None
    d = s.distance_matrix()
    assert got == [float(d[i, j]) for i, j in pairs]


def test_subsample_keeps_given_order():
    s = line_sample(0.0, 1.0, 2.0, 3.0)
    sub = s.subsample([3, 0])
    assert list(sub.points[:, 0]) == [3.0, 0.0]
    assert sub.distance(0, 1) == 3.0


def test_is_r_separated_strict_boundary():
    s = line_sample(0.0, 2.0, 4.0)
    assert is_r_separated(s, [0, 1, 2], 1.0)
    assert not is_r_separated(s, [0, 1], 2.0)  # d = 2 is not > 2
    assert is_r_separated(s, [1], 5.0)


def test_is_r_separated_rejects_duplicates():
    s = line_sample(0.0, 1.0)
    with pytest.raises(ValueError):
        is_r_separated(s, [0, 0], 0.5)


def test_farthest_first_hand_simulated():
    s = line_sample(0.0, 0.1, 5.0)
    assert farthest_first_net(s, 1.0, seed_index=0) == [0, 2]


def test_farthest_first_identical_points():
    s = line_sample(2.0, 2.0, 2.0)
    assert farthest_first_net(s, 0.5) == [0]


# A pick whose own kernel entry exceeds r: a precomputed diagonal allclose
# to zero, or a discrete NaN symbol, which np.not_equal puts at 1 from
# itself.  A traversal that left such a pick uncovered would pick it again
# forever, so each input runs in a child with a timeout.
OFF_ITSELF = {
    "diagonal": """
        import numpy as np
        from metricmass.samples import Sample, farthest_first_net, verify_net
        from metricmass.spaces import precomputed
        sample = Sample(np.arange(2), precomputed([[1e-9, 1], [1, 1e-9]]))
        net = farthest_first_net(sample, 0.0)
        assert net == [0, 1], net
        verify_net(sample, net, 0.0)
    """,
    "nan-symbol": """
        import numpy as np
        from metricmass.samples import Sample, farthest_first_net, prefix_net_errors, verify_net
        from metricmass.spaces import discrete
        sample = Sample(np.array([0.5, np.nan, 0.5]), discrete())
        net = farthest_first_net(sample, 0.5)
        assert net == [0, 1], net
        # The checks count each net point as covering itself, as the
        # traversal does.
        verify_net(sample, net, 0.5)
        assert prefix_net_errors(sample, net, [(2, 0.5)]) == [None]
    """,
}


@pytest.mark.parametrize("script", OFF_ITSELF.values(), ids=OFF_ITSELF.keys())
def test_farthest_first_ends_when_a_pick_is_off_itself(script):
    code, err = run_script(textwrap.dedent(script), timeout=60)
    assert code == 0, err


def test_farthest_first_fully_separated_includes_all():
    s = line_sample(0.0, 10.0, 20.0, 30.0)
    net = farthest_first_net(s, 1.0)
    assert sorted(net) == [0, 1, 2, 3]


def test_net_coverage_and_separation_random():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(2, 40))
        pts = rng.normal(size=(n, 2))
        s = make_sample(pts)
        r = float(rng.uniform(0.1, 2.0))
        net = farthest_first_net(s, r, seed_index=int(rng.integers(n)))
        verify_net(s, net, r)  # raises on violation
        assert is_r_separated(s, net, r)


def test_verify_net_rejects_non_cover():
    s = line_sample(0.0, 10.0)
    with pytest.raises(InvalidNetError):
        verify_net(s, [0], 1.0)
    with pytest.raises(InvalidNetError):
        verify_net(s, [], 1.0)


def test_csv_numeric_round_trip(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n0.5,1.5\n2.5,3.5\n")
    s = sample_from_csv(path)
    assert s.space.kind == "euclidean"
    assert s.points.shape == (2, 2)
    assert s.points[1, 0] == 2.5
    out = tmp_path / "round.csv"
    sample_to_csv(s, out)
    again = sample_from_csv(out)
    assert np.array_equal(again.points, s.points)


# Files of numbers the C parser reads (True) and files it leaves to the csv
# reader: signed zeros, underflow, subnormals, overflow, NaN and infinities,
# padded cells, line endings, blank lines, a byte-order mark, and then
# quotes, digit underscores, headers, ragged rows, '#', empty cells, bytes
# that are not UTF-8, full-width digits, symbols and no rows at all.
CSV_EDGES = [
    (b"-0\n1\n", True), (b"1e-400,2\n-1e-400,4\n", True), (b"2.5e-324\n5e-324\n", True),
    (b"1e400,-1e400\n", True), (b"1" + b"0" * 400 + b",1\n", True),
    (b"nan,NaN\n-nan,+nan\n", True), (b"inf,-Infinity\n+INF,infinity\n", True),
    (b" 1.5 , 2 \n\t3\t,4\n", True), (b"1\x0b,2\n3,4\n", True), (b"1,2\r\n3,4\r\n", True),
    (b"1,2\r3,4\r", True), (b"1,2\n\n3,4\n\n", True), (b"+1,+.5\n1.,.5e1\n", True),
    (b"0.1000000000000000055511151231257827021181583404541015625,3\n", True), (b"7\n", True),
    (b'"1","2"\n3,4\n', False), (b"1_0,2\n3,4\n", False), (b"x,y\n1,2\n", False),
    (b'"a","b"\n"1","2"\n', False), (b"1,2\n3\n", False), (b"1,2\n   \n3,4\n", False),
    (b"1,2#c\n3,4\n", False), (b"1,2,\n3,4,\n", False), (b",\n", False),
    (b"1,\xff\n", False), (b"\xef\xbb\xbf1,2\n3,4\n", True),
    ("\uff11,2\n".encode(), False), (b"0x10,1\n", False), (b"1,2\x0c3,4\n", False),
    (b"a\nb\n", False), (b"1;2\n", False), (b"", False), (b"\n\n", False),
]


@pytest.mark.parametrize("text,parsed_in_c", CSV_EDGES)
def test_csv_numbers_parsed_in_c_match_the_csv_reader(tmp_path, text, parsed_in_c):
    # Each file gives the same points, bit for bit, or the same error with
    # the C parser as with the csv reader alone, forced by making the
    # parser fail.
    path = tmp_path / "edge.csv"
    path.write_bytes(text)

    def read():
        try:
            s = sample_from_csv(path)
        except ValueError as exc:
            return type(exc), str(exc)
        return s.space, s.points.dtype, s.points.shape, s.points.tobytes()

    with mock.patch.object(samples.csv, "reader", wraps=samples.csv.reader) as reader:
        fast = read()
    assert reader.called != parsed_in_c
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("parser failed")):
        assert fast == read()


def test_csv_byte_order_mark_before_numbers(tmp_path):
    # The mark is no part of the first cell, so the first row is data, not
    # a header, on both readers.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
    assert sample_from_csv(path).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("parser failed")):
        assert sample_from_csv(path).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_csv_byte_order_mark_before_symbols(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfa\nb\n")
    for space in (None, discrete()):
        s = sample_from_csv(path, space)
        assert s.space.kind == "discrete" and list(s.points) == ["a", "b"]


def test_csv_symbols(tmp_path):
    path = tmp_path / "sym.csv"
    path.write_text("a\na\nb\nc\n")
    s = sample_from_csv(path)
    assert s.space.kind == "discrete"
    assert list(s.points) == ["a", "a", "b", "c"]


def test_csv_integer_symbols_round_trip(tmp_path):
    # Read back under the discrete space, integer symbols used to be parsed
    # as one-column coordinates and rejected.
    s = make_sample(np.array([3, 1, 3, 2]), discrete())
    out = tmp_path / "sym.csv"
    sample_to_csv(s, out)
    again = sample_from_csv(out, discrete())
    assert list(again.points) == ["3", "1", "3", "2"]
    assert np.array_equal(again.distance_matrix(), s.distance_matrix())


def test_json_array_and_matrix(tmp_path):
    arr = tmp_path / "pts.json"
    arr.write_text("[[0.0, 0.0], [1.0, 1.0]]")
    s = sample_from_json(arr)
    assert s.space.kind == "euclidean" and s.n == 2

    mat = tmp_path / "mat.json"
    mat.write_text('{"matrix": [[0.0, 2.0], [2.0, 0.0]]}')
    s2 = sample_from_json(mat)
    assert s2.space.kind == "precomputed"
    assert s2.distance(0, 1) == 2.0
    with pytest.raises(ValueError, match="takes no declared space"):
        sample_from_json(mat, euclidean(2))


def test_discrete_sample_pairwise():
    s = make_sample(np.array(["a", "a", "b"]), discrete())
    d = s.distance_matrix()
    assert d[0, 1] == 0.0 and d[0, 2] == 1.0


def test_scaling_distances():
    s = line_sample(0.0, 2.0)
    scaled = s.with_distances_scaled(0.5)
    assert scaled.distance(0, 1) == pytest.approx(1.0)


@pytest.mark.parametrize("r", [np.nan, -1.0])
def test_traversal_and_net_check_reject_invalid_radius(r):
    # At NaN the traversal's ``dist <= r`` is never true: it used to pick
    # points forever instead of failing.
    s = line_sample(*np.arange(60.0))
    with pytest.raises(ValueError, match="radius"):
        farthest_first_traversal(s, r)
    with pytest.raises(ValueError, match="radius"):
        farthest_first_net(s, r)
    with pytest.raises(ValueError, match="radius"):
        verify_net(s, [0], r)


def test_overflowing_distances_fail_the_summary_pass():
    # Finite points whose distances overflow to inf used to give G = 1 at
    # any radius and an inf diameter.
    s = make_sample(np.array([[0.0, 0.0], [1e200, 1e200], [-1e200, 3e200]]))
    assert np.isinf(s.distance(0, 1))
    for read in (s.diameter, s.nearest_distances, s.positive_pair_count):
        with pytest.raises(ValueError, match="finite"):
            read()


def test_overflowing_distances_fail_the_threaded_pass_and_leave_no_task():
    # The overflow sits in the first of 40 one-row blocks; the error comes
    # out of the pool as on the calling thread, once every block sent there
    # has ended.  Slow blocks would still be running otherwise.  An error
    # in a fold leaves no task either.
    points = np.zeros((40, 2))
    points[:2] = [[1e200, 1e200], [-1e200, 3e200]]
    submitted = []
    submit, kernel = ThreadPoolExecutor.submit, MetricSpace.kernel

    def spy(pool, *args):
        submitted.append(submit(pool, *args))
        return submitted[-1]

    def slow_kernel(space, *args, **kwargs):
        time.sleep(0.02)
        return kernel(space, *args, **kwargs)

    with pool_threads(2), mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", 40), \
            mock.patch.object(ThreadPoolExecutor, "submit", spy), \
            mock.patch.object(MetricSpace, "kernel", slow_kernel):
        s = make_sample(points)
        for read in (s.diameter, s.nearest_distances, s.positive_pair_count):
            with pytest.raises(ValueError, match="^pairwise distances must be finite$"):
                read()
            assert 0 < len(submitted) < 40
            assert all(future.done() for future in submitted)
            submitted.clear()

        # An error in the fold ends the pass the same way, with blocks left.
        worked = []

        def work(block, buffers):
            time.sleep(0.02)
            worked.append(block)
            return block

        def fold(block):
            if block == 2:
                raise RuntimeError("fold failed")

        with pytest.raises(RuntimeError, match="^fold failed$"):
            samples.stream_blocks(work, lambda budget: range(40), 40 * 40, 40, fold)
        assert 0 < len(submitted) and len(worked) < 40
        assert all(future.done() for future in submitted)


def test_streamed_passes_under_frequent_thread_switches():
    # Four threads on fewer cores, switching every microsecond, with
    # one-row blocks: every summary and order statistic is the calling
    # thread's, and the passes end.
    points = np.random.default_rng(3).integers(0, 6, size=(300, 2)).astype(float)
    with pool_threads(1):
        alone = make_sample(points)
        ranks = np.arange(0, alone.positive_pair_count(), 97)
        expected = [alone.nearest_distances(), alone.earlier_distances(),
                    alone.pair_rank_selector(())[1](ranks)]
    got = []

    def passes():
        for _ in range(3):
            s = make_sample(points)
            got.append([s.nearest_distances(), s.earlier_distances(),
                        s.pair_rank_selector(())[1](ranks)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pool_threads(4), mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", 64):
            runner = threading.Thread(target=passes, daemon=True)
            runner.start()
            runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(got) == 3
    for result in got:
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
