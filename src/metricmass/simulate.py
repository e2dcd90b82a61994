"""Monte Carlo campaigns: replicate, estimate, compare against the bounds.

Each replicate draws a fresh sample, evaluates the configured estimators
and, when the distribution admits an exact oracle, the true conditional
missing mass.  Aggregation reports empirical means, variances, biases and
tail frequencies next to the corresponding closed-form ceilings.

Replicate i uses the generator seeded by (root_seed, i), so campaigns are
bit-reproducible regardless of worker count.  The campaign table has one
column per name (replicate, estimators, oracle, h, each requested T_m),
every column in replicate order.

Replicates are evaluated a block at a time, B = max(1,
``SUMMARY_BLOCK_ELEMENTS`` // n^2) of them (26 at n = 100).  Each replicate
draws its sample from its own generator; the block's points are stacked,
and each statistic takes the whole stack in one call of the formula the
one-sample functions call with one sample:
:func:`~metricmass.samples.stacked_within`, the estimators'
``isolated_shares``, ``escapes``, ``window_estimates`` and
``window_minima``, and
:func:`~metricmass.oracles.coverage_masses`.  The distances of a block fill
one B x n x n array, one kernel call per replicate into its own slice, so
a block holds at most 2^18 distances (2 MB) whatever B is, and none on the
discrete metric, whose symbol codes answer it.  Every reduction adds in
the order it does for one sample, so each value is the one-sample
functions' bit for bit, for any B and any worker count.  Only the h search
runs per replicate.  A replicate of more than 512 points (n^2 past the
budget) is a block of its own and answers as a ``Sample`` does, streaming
its passes or asking its neighbour index.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import samples
from .bounds import check_t, tail_bound_G, tail_bound_Mhat, variance_bound_G, variance_bound_Mhat
from .distributions import draw, spec_to_dict
from .estimators import (
    check_delta,
    escapes,
    isolated_shares,
    upper_values,
    window_estimates,
    window_minima,
)
from .oracles import FINITE, MONTE_CARLO, coverage_masses, expected_missing_mass, oracle_branch
from .samples import SUMMARY_BLOCK_ELEMENTS, Sample, stacked_within
from .separation import DEFAULT_CAP, check_cap, h_exact
from .spaces import check_radius


@dataclass(frozen=True)
class SimulationConfig:
    spec: object
    n: int
    r: float
    delta: float = 0.1
    replicates: int = 100
    seed: int = 0
    workers: int = 1
    m_list: tuple[int, ...] = ()
    t_list: tuple[float, ...] = (1.0, 3.0)
    compute_h: bool = False
    h_cap: int = DEFAULT_CAP

    def __post_init__(self):
        # The M_hat bounds every campaign reports divide by n - 1.
        if self.n < 2 or self.replicates < 1:
            raise ValueError("n must be at least 2 and replicates positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        check_delta(self.delta)
        check_radius(self.r)
        if any(not 1 <= m <= self.n for m in self.m_list):
            raise ValueError("every m must lie in [1, n]")
        for t in self.t_list:
            check_t(t)
        check_cap(self.h_cap)

    def to_dict(self) -> dict:
        # The worker count is execution machinery, not part of the
        # experiment; leaving it out keeps outputs byte-identical across
        # worker counts.
        return {
            "spec": spec_to_dict(self.spec),
            "n": self.n,
            "r": self.r,
            "delta": self.delta,
            "replicates": self.replicates,
            "seed": self.seed,
            "m_list": list(self.m_list),
            "t_list": list(self.t_list),
            "compute_h": self.compute_h,
            "h_cap": self.h_cap,
        }


def _run_range(config: SimulationConfig, start: int, stop: int) -> dict[str, list]:
    """The campaign's columns over the replicates [start, stop), a block at
    a time; a column that is off holds None."""
    spec, r = config.spec, config.r
    space = spec.space()
    oracle = oracle_branch(spec) != MONTE_CARLO
    step = max(1, SUMMARY_BLOCK_ELEMENTS // (config.n * config.n))
    columns: dict[str, list] = {}
    for first in range(start, stop, step):
        reps = range(first, min(first + step, stop))
        draws = [draw(spec, config.n, [config.seed, i]) for i in reps]
        points = np.stack([space.as_points(drawn) for drawn, _ in draws])
        atoms = None if draws[0][1] is None else np.stack([idx for _, idx in draws])
        earlier, other = stacked_within(space, points, r)
        t = window_estimates(escapes(earlier))
        off = [None] * len(reps)
        block = {
            "replicate": list(reps),
            "good_turing": isolated_shares(other).tolist(),
            "martingale_full": t[:, -1].tolist(),
            "martingale_min_bound": upper_values(window_minima(t, config.delta)[2]).tolist(),
            "mhat_oracle": coverage_masses(spec, points, atoms, r)[0].tolist() if oracle else off,
            "h": [h_exact(Sample(points[k], space, None if atoms is None else atoms[k]), r,
                          cap=config.h_cap).value for k in range(len(reps))]
                 if config.compute_h else off,
            **{f"martingale_m{m}": t[:, m - 1].tolist() for m in config.m_list},
        }
        for name, values in block.items():
            columns.setdefault(name, []).extend(values)
    return columns


def run_campaign(config: SimulationConfig) -> dict:
    """Execute the campaign; returns the config echo, the per-replicate
    table as ``"columns"`` (name -> list in replicate order) and aggregate
    comparisons against the closed-form bounds."""
    reps = config.replicates
    # A forked pool starts all its processes at the first submit, so it is
    # given no more than there are cores; no output depends on the count.
    workers = min(config.workers, samples._cores())
    if workers == 1:
        columns = _run_range(config, 0, reps)
    else:
        chunk = max(1, math.ceil(reps / (workers * 4)))
        spans = [(s, min(s + chunk, reps)) for s in range(0, reps, chunk)]
        # A worker process runs its passes on one thread (see
        # samples.stream_blocks), so k workers start k threads, not k times
        # the cores.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_range, [config] * len(spans),
                                  [s for s, _ in spans], [e for _, e in spans]))
        columns = {name: [value for part in parts for value in part[name]]
                   for name in parts[0]}

    return {
        "config": config.to_dict(),
        "columns": columns,
        "aggregate": _aggregate(config, columns),
    }


def _freq(mask: np.ndarray) -> dict:
    p = float(mask.mean())
    return {"frequency": p,
            "sigma": float(math.sqrt(max(p * (1 - p), 1e-12) / len(mask)))}


def _aggregate(config: SimulationConfig, columns: dict[str, list]) -> dict:
    n, r = config.n, config.r
    reps = len(columns["replicate"])

    def column(name: str) -> np.ndarray:
        return np.array(columns[name], dtype=float)

    g = column("good_turing")
    t_full = column("martingale_full")
    min_bound = column("martingale_min_bound")
    agg: dict = {
        "replicates": reps,
        "good_turing": {"mean": float(g.mean()), "variance": float(g.var(ddof=1)) if reps > 1 else 0.0},
        "martingale_full": {"mean": float(t_full.mean())},
        "martingale_min_bound": {"mean": float(min_bound.mean())},
    }

    e_h = 1.0
    if config.compute_h:
        h = column("h")
        agg["h"] = {"mean": float(h.mean()), "max": int(h.max())}
        e_h = max(1.0, float(h.mean()))
    agg["e_h_used"] = e_h

    agg["variance_bounds"] = {
        "good_turing": variance_bound_G(e_h, n).to_dict(),
        "mhat": variance_bound_Mhat(e_h, n).to_dict(),
    }

    tail_rows = []
    for t in config.t_list:
        rep_g = tail_bound_G(e_h, n, t)
        entry = {"t": t,
                 "good_turing": dict(threshold=rep_g.value, probability=rep_g.probability,
                                     **_freq(np.abs(g - g.mean()) > rep_g.value))}
        tail_rows.append(entry)
    agg["tail_G"] = tail_rows

    branch = oracle_branch(config.spec)
    if branch != MONTE_CARLO:
        mhat = column("mhat_oracle")
        agg["mhat"] = {"mean": float(mhat.mean()),
                       "variance": float(mhat.var(ddof=1)) if reps > 1 else 0.0}
        # Only finite support has an exact expected mass; the bias is never
        # reported against a Monte Carlo one, so none is computed.
        if branch == FINITE:
            expected = expected_missing_mass(config.spec, n, r)
            bias = g - expected.value
            agg["good_turing_bias"] = {
                "expected_mass": expected.value,
                "mean": float(bias.mean()),
                "sigma": float(bias.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
                "upper_limit": 1.0 / n,
            }
        mhat_tails = []
        for t in config.t_list:
            rep_m = tail_bound_Mhat(e_h, n, t)
            mhat_tails.append({"t": t,
                               "threshold": rep_m.value,
                               "probability": rep_m.probability,
                               **_freq(np.abs(mhat - mhat.mean()) > rep_m.value)})
        agg["tail_Mhat"] = mhat_tails

        seq_rows = []
        for m in config.m_list:
            t_m = column(f"martingale_m{m}")
            entry = {"m": m,
                     "bias_mean": float((t_m - mhat).mean()),
                     "bias_limit": math.log(n / (n - m)) if m < n else None,
                     "tails": []}
            for t in config.t_list:
                entry["tails"].append({
                    "t": t,
                    "absolute": dict(bound=math.exp(-m * t * t / 2.0),
                                     **_freq(mhat - t_m > t)),
                    "relative": dict(bound=math.exp(-m * t / (4.0 * (math.e - 2.0))),
                                     **_freq(mhat - 2.0 * t_m > t)),
                })
            seq_rows.append(entry)
        if seq_rows:
            agg["martingale"] = seq_rows
    return agg
