"""Kernel work of the sample-only commands, counted in distance entries.
One pass over the upper triangle, about n^2 / 2 entries, serves the radius
grid, the diameter and the estimators' summaries; the certificates at one
radius ask the neighbour index instead, and the discrete metric takes none,
its symbol counts answering it."""
import json

import numpy as np
import pytest

from metricmass import separation
from metricmass.cli import main
from metricmass.samples import Sample
from metricmass.spaces import MetricSpace

from helpers import kernel_spy

N = 3000


def kernel_calls(argv, monkeypatch) -> list[int]:
    """Distance entries of each kernel call one CLI run made."""
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
    return sizes


def kernel_entries(argv, monkeypatch) -> int:
    return sum(kernel_calls(argv, monkeypatch))


@pytest.fixture
def train(tmp_path):
    path = tmp_path / "train.csv"
    np.savetxt(path, np.random.default_rng(0).normal(size=(N, 3)), delimiter=",")
    return str(path)


def test_wasserstein_kernel_work(train, tmp_path, monkeypatch):
    # The pass, plus the pilot's block of every point against a few random
    # ones, the farthest-first traversal and the net checks.  The grid's
    # windows hold its ranks, so no second pass over the sample keeps or
    # counts them, and they keep a few percent of the pairs.
    summarize, kept = Sample._summarize, []

    def counting(self, *args, **kwargs):
        kept.append((self.n, kwargs.get("capacity", 0)))
        return summarize(self, *args, **kwargs)

    monkeypatch.setattr(Sample, "_summarize", counting)
    entries = kernel_entries(["wasserstein", "--input", train,
                              "--out", str(tmp_path / "out")], monkeypatch)
    assert entries < N * N
    (capacity,) = [capacity for n, capacity in kept if n == N]
    assert capacity <= 0.04 * N * (N - 1) / 2


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
    # The farthest-first traversal computes one row per net point, of the
    # distances to the points it still tracks: every 32 picks it drops
    # those within r of the net, so past a few hundred picks the rows
    # average well under N.  The net check asks the neighbour index over
    # the net, so it adds no N x |net| block of its own.
    out = tmp_path / "out"
    entries = kernel_entries(["code", "--input", train, "--epsilon", "0.4", "--use-net",
                              "--out", str(out)], monkeypatch)
    net = len(json.loads((tmp_path / "out.json").read_text())["report"]["codebook"])
    assert net >= 500
    assert entries <= 0.6 * N * net


def test_discrete_commands_make_no_kernel_call(tmp_path, monkeypatch):
    # A campaign with h and the exact oracle, and an estimate whose clique
    # relaxation has one draw of each of 300 symbols: every answer comes
    # from symbol counts and atom indices.
    spec = json.dumps({"kind": "discrete", "symbols": [f"s{i}" for i in range(500)],
                       "weights": [1 / 500] * 500})
    assert kernel_calls(["simulate", "--distribution", spec, "--n", "100", "--r", "0.5",
                         "--replicates", "20", "--compute-h", "--m-list", "50",
                         "--out", str(tmp_path / "sim")], monkeypatch) == []
    symbols = tmp_path / "symbols.csv"
    draws = np.random.default_rng(0).integers(0, 300, size=N)
    symbols.write_text("".join(f"s{v}\n" for v in draws))
    assert kernel_calls(["estimate", "--input", str(symbols), "--r", "0.5",
                         "--out", str(tmp_path / "est")], monkeypatch) == []
    report = json.loads((tmp_path / "est.json").read_text())
    assert report["h_clique"]["value"] == len(set(draws.tolist()))


@pytest.mark.parametrize("space", [[], ["--space", "lp:2,1"]])
def test_estimate_answers_both_h_questions_from_one_window(space, tmp_path, monkeypatch):
    # The clique relaxation and the h search read one window graph, built
    # from one n x n kernel call.
    n = 200
    path = tmp_path / "points.csv"
    np.savetxt(path, np.random.default_rng(0).uniform(size=(n, 2)), delimiter=",")
    window, inside = separation._window, []

    def counting(sample, r, bound):
        with kernel_spy() as shapes:
            built = window(sample, r, bound)
        inside.append(shapes)
        return built

    monkeypatch.setattr(separation, "_window", counting)
    assert main(["estimate", "--input", str(path), "--r", "0.1",
                 "--out", str(tmp_path / "est")] + space) == 0
    assert inside == [[(n, n)]]


def test_campaign_kernel_work(tmp_path):
    # Each replicate's distances are one n x n kernel call into its slice
    # of the block's stack; the estimators and the interval oracle read
    # them from the stack's summaries and compute none.
    spec = json.dumps({"kind": "uniform_interval", "a": 0.0, "b": 1.0})
    with kernel_spy() as shapes:
        assert main(["simulate", "--distribution", spec, "--n", "100", "--r", "0.004",
                     "--replicates", "53", "--m-list", "25,50",
                     "--out", str(tmp_path / "sim")]) == 0
    assert shapes == [(100, 100)] * 53
