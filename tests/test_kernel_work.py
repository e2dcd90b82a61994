"""Kernel work of the sample-only commands, counted in distance entries.
One pass over the upper triangle, about n^2 / 2 entries, serves the radius
grid, the diameter and the estimators' summaries."""
import numpy as np
import pytest

from metricmass.cli import main
from metricmass.spaces import MetricSpace

N = 3000


def kernel_entries(argv, monkeypatch) -> int:
    """Distance entries every kernel call of one CLI run computed."""
    kernel = MetricSpace.kernel
    entries = 0

    def counting(self, a, b):
        nonlocal entries
        block = kernel(self, a, b)
        entries += block.size
        return block

    monkeypatch.setattr(MetricSpace, "kernel", counting)
    assert main(argv) == 0
    return entries


@pytest.fixture
def train(tmp_path):
    path = tmp_path / "train.csv"
    np.savetxt(path, np.random.default_rng(0).normal(size=(N, 3)), delimiter=",")
    return str(path)


def test_wasserstein_kernel_work(train, tmp_path, monkeypatch):
    # The pass, plus the farthest-first traversal and the net checks.
    entries = kernel_entries(["wasserstein", "--input", train,
                              "--out", str(tmp_path / "out")], monkeypatch)
    assert entries < 2 * N * N


def test_certificate_kernel_work(train, tmp_path, monkeypatch):
    # The pass alone: half the matrix plus the squares below the diagonal
    # that its row blocks compute and discard.
    entries = kernel_entries(["classify", "--train", train, "--gamma", "0.3",
                              "--certificate-delta", "0.05",
                              "--out", str(tmp_path / "out")], monkeypatch)
    assert entries <= 0.52 * N * N
