"""The benchmark's workloads.

A workload turns the workload seed into input files and a fixed list of
CLI operations; one pass runs the list once.  Every file, spec and ``--seed``
value the program receives derives from the workload seed.  The program
draws the samples of ``simulate`` and of ``wasserstein --distribution``
itself from ``--seed``; their checks regenerate those samples with the
program's own ``draw_sample``, since what they check is the result computed
from the sample, not the draw.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from metricmass.distributions import draw_sample, spec_from_dict

import checks


@dataclass
class Op:
    argv: list[str]
    check: Callable[[], None]
    replicates: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _write_points(path: Path, points: np.ndarray) -> str:
    np.savetxt(path, points, fmt="%.17g", delimiter=",")
    return str(path)


def _drawn_points(spec: dict, n: int, seed) -> np.ndarray:
    return draw_sample(spec_from_dict(spec), n, seed).points


# -- validate ------------------------------------------------------------------

def _check_uniform_campaign(out: str, spec: dict, n: int, r: float, seed: int,
                            replicates: int) -> None:
    first = _drawn_points(spec, n, [seed, 0]).reshape(-1)
    checks.check_campaign(out, replicates, uniform_first=(first, r))


def _check_drawn_w1(out: str, spec: dict, n: int, seed: int) -> None:
    checks.check_w1(out, _drawn_points(spec, n, seed))


def build_validate(seed: int, workdir: Path) -> list[Op]:
    """Three campaigns, one per exact oracle branch it exercises, and two
    declared-distribution sweeps: the 1-D exact oracle and Monte Carlo."""
    rng = np.random.default_rng(seed)
    sim_seeds, w1_seeds = _seeds(rng, 3), _seeds(rng, 2)
    weights = 1.0 / np.arange(1, 501)
    zipf = {"kind": "discrete", "symbols": [f"s{i}" for i in range(500)],
            "weights": (weights / weights.sum()).tolist()}
    uniform = {"kind": "uniform_interval", "a": 0.0, "b": 1.0}
    n = 100
    campaigns = [(uniform, 0.004, 200),
                 ({"kind": "scaled_indicator", "p": 2.0}, 0.1, 200),
                 (zipf, 0.5, 500)]
    ops = []
    for i, ((spec, r, reps), s) in enumerate(zip(campaigns, sim_seeds)):
        out = str(workdir / f"campaign{i}")
        argv = ["simulate", "--distribution", json.dumps(spec), "--n", str(n),
                "--r", repr(r), "--replicates", str(reps), "--m-list", "25,50",
                "--seed", str(s), "--workers", "1", "--out", out]
        if spec is uniform:
            check = partial(_check_uniform_campaign, out, spec, n, r, s, reps)
        else:
            check = partial(checks.check_campaign, out, reps)
        ops.append(Op(argv, check, replicates=reps))
    sweeps = [uniform, {"kind": "lowdim_embedding", "d_intrinsic": 2, "d_ambient": 5}]
    for i, (spec, s) in enumerate(zip(sweeps, w1_seeds)):
        out = str(workdir / f"sweep{i}")
        argv = ["wasserstein", "--distribution", json.dumps(spec), "--n", "250",
                "--seed", str(s), "--out", out]
        ops.append(Op(argv, partial(_check_drawn_w1, out, spec, 250, s)))
    return ops


# -- estimate-local -----------------------------------------------------------

def jittered_grid(rng: np.random.Generator, side: int) -> np.ndarray:
    """One uniform point in each cell of a side x side grid on [0, 1]^2, in
    random order.  Evener than iid uniform points, so the cost of the h
    search varies less from seed to seed."""
    cells = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    points = (cells + rng.uniform(size=cells.shape)) / side
    return points[rng.permutation(len(points))]


# (count, grid side, r, p-norm or None for euclidean)
LOCAL_INSTANCES = [(8, 14, 0.18, None), (3, 20, 0.14, 1.0)]


def build_estimate_local(seed: int, workdir: Path) -> list[Op]:
    """Many small 2-D samples, so the summed h-search time averages over
    instances: euclidean ones use the exact MEB locality test, the 1-norm
    ones the on-sample centre test."""
    rng = np.random.default_rng(seed)
    ops = []
    for count, side, r, p in LOCAL_INSTANCES:
        for _ in range(count):
            i = len(ops)
            points = jittered_grid(rng, side)
            path = _write_points(workdir / f"local{i}.csv", points)
            out = str(workdir / f"estimate{i}")
            argv = ["estimate", "--input", path, "--r", repr(r), "--out", out]
            if p is not None:
                argv += ["--space", f"lp:2,{p!r}"]
            ops.append(Op(argv, partial(checks.check_estimate, out, points, r, p)))
    return ops


# -- certify-large -------------------------------------------------------------

def mixture_3d(rng: np.random.Generator, count: int) -> np.ndarray:
    """Equal-weight Gaussian mixture (std 0.5) centred at the origin and at
    2 e_j for j = 1..3."""
    points = rng.normal(0.0, 0.5, size=(count, 3))
    comp = rng.integers(0, 4, size=count)
    shifted = comp > 0
    points[np.flatnonzero(shifted), comp[shifted] - 1] += 2.0
    return points


def build_certify_large(seed: int, workdir: Path) -> list[Op]:
    """One large training sample behind a W1 sweep, a coding report and a
    classifier; every 10th query is moved off the support."""
    rng = np.random.default_rng(seed)
    train = mixture_3d(rng, 6000)
    queries = mixture_3d(rng, 2000)
    queries[::10] += 6.0
    train_csv = _write_points(workdir / "train.csv", train)
    query_csv = _write_points(workdir / "queries.csv", queries)
    sweep, code, verdicts = (str(workdir / name) for name in ("sweep", "code", "verdicts"))
    return [
        Op(["wasserstein", "--input", train_csv, "--out", sweep],
           partial(checks.check_w1, sweep, train)),
        Op(["code", "--input", train_csv, "--epsilon", "0.4", "--use-net",
            "--diameter", "10", "--out", code],
           partial(checks.check_code, code, train, 0.4)),
        Op(["classify", "--train", train_csv, "--gamma", "0.3", "--certificate-delta",
            "0.05", "--queries", query_csv, "--out", verdicts],
           partial(checks.check_verdicts, verdicts, train, queries, 0.3)),
    ]


WORKLOADS = {
    "validate": build_validate,
    "estimate-local": build_estimate_local,
    "certify-large": build_certify_large,
}
