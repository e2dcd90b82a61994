"""Kernel work of the sample-only commands, counted in distance entries.
One pass over the upper triangle, about n^2 / 2 entries, serves the radius
grid, the diameter and the estimators' summaries; the certificates at one
radius ask the neighbour index instead."""
import json

import numpy as np
import pytest

from metricmass.cli import main
from metricmass.samples import Sample
from metricmass.spaces import MetricSpace

N = 3000


def kernel_entries(argv, monkeypatch) -> int:
    """Distance entries every kernel call of one CLI run computed."""
    kernel = MetricSpace.kernel
    # One entry per call: calls come from every thread of a pass, and an
    # append, unlike a += on a shared count, loses none of them.
    sizes = []

    def counting(self, a, b, out=None):
        block = kernel(self, a, b, out=out)
        sizes.append(block.size)
        return block

    monkeypatch.setattr(MetricSpace, "kernel", counting)
    assert main(argv) == 0
    return sum(sizes)


@pytest.fixture
def train(tmp_path):
    path = tmp_path / "train.csv"
    np.savetxt(path, np.random.default_rng(0).normal(size=(N, 3)), delimiter=",")
    return str(path)


def test_wasserstein_kernel_work(train, tmp_path, monkeypatch):
    # The pass, plus the pilot's two passes over its 1,000 points, the
    # farthest-first traversal and the net checks.  The grid's windows hold
    # its ranks, so no second pass over the sample keeps or counts them.
    summarize, sizes = Sample._summarize, []

    def counting(self, *args, **kwargs):
        sizes.append(self.n)
        return summarize(self, *args, **kwargs)

    monkeypatch.setattr(Sample, "_summarize", counting)
    entries = kernel_entries(["wasserstein", "--input", train,
                              "--out", str(tmp_path / "out")], monkeypatch)
    assert entries < N * N
    assert sizes.count(N) == 1


def test_certificate_kernel_work(train, tmp_path, monkeypatch):
    # The neighbour index answers the escape indicators; the kernel sees
    # only the rows whose candidates leave them open, mostly early points
    # whose nearest candidates are all later ones.  The summary pass would
    # compute half the matrix.
    entries = kernel_entries(["classify", "--train", train, "--gamma", "0.3",
                              "--certificate-delta", "0.05",
                              "--out", str(tmp_path / "out")], monkeypatch)
    assert entries <= 0.05 * N * N


def test_code_net_check_kernel_work(train, tmp_path, monkeypatch):
    # The farthest-first traversal computes one row of N distances per net
    # point.  The net check asks the neighbour index over the net, so it
    # adds no N x |net| block of its own.
    out = tmp_path / "out"
    entries = kernel_entries(["code", "--input", train, "--epsilon", "0.4", "--use-net",
                              "--out", str(out)], monkeypatch)
    net = len(json.loads((tmp_path / "out.json").read_text())["report"]["codebook"])
    assert entries - N * net <= 0.05 * N * net
