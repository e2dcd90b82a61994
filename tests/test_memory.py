"""Sample-only commands stream distances in row blocks: none requests the
n x n distance matrix, and none holds even most of one.  The Monte Carlo
oracle streams its test points' distances in the same blocks."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from metricmass import oracles, samples
from metricmass.applications import ProximityClassifier, false_alarm_certificate
from metricmass.cli import main
from metricmass.distributions import LowdimEmbeddingSpec, draw_sample
from metricmass.samples import Sample, make_sample
from metricmass.spaces import MetricSpace
from metricmass.wasserstein import default_r_grid

from helpers import index_spy

N = 3000


@pytest.mark.parametrize("command", ["wasserstein", "code", "classify"])
def test_command_never_builds_the_matrix(command, tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    train, queries = tmp_path / "train.csv", tmp_path / "queries.csv"
    np.savetxt(train, rng.normal(size=(N, 3)), delimiter=",")
    np.savetxt(queries, rng.normal(size=(1000, 3)) + 1.0, delimiter=",")
    argv = {
        "wasserstein": ["wasserstein", "--input", str(train)],
        "code": ["code", "--input", str(train), "--epsilon", "0.4", "--use-net"],
        "classify": ["classify", "--train", str(train), "--gamma", "0.3",
                     "--certificate-delta", "0.05", "--queries", str(queries)],
    }[command] + ["--out", str(tmp_path / "out")]
    peak = matrix_free_peak(argv, monkeypatch)
    # One matrix is n * n * 8 bytes.
    assert peak < 0.75 * N * N * 8
    if command == "wasserstein":
        # The radius grid selects its order statistics without holding the
        # n(n - 1)/2 distances above the diagonal.
        assert peak < 0.25 * N * N * 8


def test_radius_grid_on_tied_distances(monkeypatch):
    # On the lattice {0..3}^2 a few distances are shared by most pairs, and
    # each window of the grid holds one or two of them.  The pass counts the
    # distances equal to each instead of keeping them, so the traced peak is
    # the pilot's one block of distances, every point against a few random
    # ones, and the blocks of a pass (the block, its masks and the distances
    # it keeps): keeping the ties adds megabytes.  The counts answer the
    # grid's ranks, so the sample takes one pass.
    sample = make_sample(np.random.default_rng(0).integers(0, 4, size=(N, 2)).astype(float))
    summarize, passes = Sample._summarize, []

    def counting(self, *args, **kwargs):
        passes.append(self is sample)
        return summarize(self, *args, **kwargs)

    monkeypatch.setattr(Sample, "_summarize", counting)
    monkeypatch.setattr(Sample, "distance_matrix", refuse_matrix)
    tracemalloc.start()
    try:
        default_r_grid(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = samples.SUMMARY_BLOCK_ELEMENTS * 8
    # The pilot's distances: N rows of ceil(block / N) columns.
    pilot = N * -(-samples.SUMMARY_BLOCK_ELEMENTS // N) * 8
    assert peak < pilot + 3 * block
    assert sum(passes) == 1


def refuse_matrix(self):
    raise AssertionError("the n x n distance matrix was requested")


def matrix_free_peak(argv, monkeypatch) -> int:
    """The traced peak of a CLI run that must succeed without the matrix."""
    monkeypatch.setattr(Sample, "distance_matrix", refuse_matrix)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [1, 2])
def test_monte_carlo_oracle_holds_one_block_at_a_time(k):
    spec = LowdimEmbeddingSpec(2, 5)
    sample = draw_sample(spec, 250, seed=0)
    n_test = 100_000
    tracemalloc.start()
    try:
        if k == 1:  # the nearest distance only
            oracles.conditional_missing_masses(spec, sample, [0.2, 0.5, 1.0],
                                               n_test=n_test, seed=1)
        else:  # the nearest two
            oracles.smoothed_oracle_H(spec, sample, 0.5, n_test=n_test, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = samples.SUMMARY_BLOCK_ELEMENTS * 8
    draw_chunk = oracles._MC_CHUNK * spec.d_ambient * 8
    # The k nearest distances of every test point.
    result = n_test * k * 8
    assert peak < 2 * block + draw_chunk + result


def test_certificate_on_the_index_holds_no_more_than_the_summary_pass():
    # gamma above the diameter puts every pair within gamma, so every point
    # fills its candidate slots and the early points, whose candidates are
    # all later ones, go to the kernel.  The candidates are taken rows at a
    # time, so no buffer grows with the pairs within gamma, and the index
    # path peaks no higher than the summary pass it replaces.
    points = np.random.default_rng(0).normal(size=(20_000, 3))
    gamma = 2 * float(np.linalg.norm(np.ptp(points, axis=0)))

    def certificate_peak():
        clf = ProximityClassifier(make_sample(points), gamma)
        tracemalloc.start()
        try:
            false_alarm_certificate(clf, 0.05)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with index_spy() as built:
        indexed = certificate_peak()
    assert built == [True]
    with mock.patch.object(MetricSpace, "neighbour_index", lambda self, points, r: None):
        dense = certificate_peak()
    assert indexed <= dense
