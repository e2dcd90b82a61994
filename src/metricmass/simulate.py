"""Monte Carlo campaigns: replicate, estimate, compare against the bounds.

Each replicate draws a fresh sample, evaluates the configured estimators
and, when the distribution admits an exact oracle, the true conditional
missing mass.  Aggregation reports empirical means, variances, biases and
tail frequencies next to the corresponding closed-form ceilings.

Replicate i uses the generator seeded by (root_seed, i), so campaigns are
bit-reproducible regardless of worker count.  The campaign table has one
column per name (replicate, estimators, oracle, h, each requested T_m),
every column in replicate order.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import tail_bound_G, tail_bound_Mhat, variance_bound_G, variance_bound_Mhat
from .distributions import draw_sample, spec_to_dict
from .estimators import check_delta, good_turing, sequential_bounds
from .oracles import (
    FINITE,
    MONTE_CARLO,
    conditional_missing_mass,
    expected_missing_mass,
    oracle_branch,
)
from .separation import DEFAULT_CAP, h_exact


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
        check_delta(self.delta)
        if any(not 1 <= m <= self.n for m in self.m_list):
            raise ValueError("every m must lie in [1, n]")

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


def _run_range(config: SimulationConfig, start: int, stop: int) -> list[dict]:
    """One named record per replicate in [start, stop); a column that is
    off holds None."""
    spec, n, r = config.spec, config.n, config.r
    oracle = oracle_branch(spec) != MONTE_CARLO
    records = []
    for i in range(start, stop):
        sample = draw_sample(spec, n, [config.seed, i])
        t_all, _, min_bound = sequential_bounds(sample, r, config.delta)
        record = {
            "replicate": i,
            "good_turing": good_turing(sample, r),
            "martingale_full": float(t_all[-1]),
            "martingale_min_bound": min_bound.value,
            "mhat_oracle": conditional_missing_mass(spec, sample, r).value if oracle else None,
            "h": h_exact(sample, r, cap=config.h_cap).value if config.compute_h else None,
        }
        record.update((f"martingale_m{m}", float(t_all[m - 1])) for m in config.m_list)
        records.append(record)
    return records


def run_campaign(config: SimulationConfig) -> dict:
    """Execute the campaign; returns the config echo, the per-replicate
    table as ``"columns"`` (name -> list in replicate order) and aggregate
    comparisons against the closed-form bounds."""
    reps = config.replicates
    if config.workers <= 1:
        records = _run_range(config, 0, reps)
    else:
        chunk = max(1, math.ceil(reps / (config.workers * 4)))
        spans = [(s, min(s + chunk, reps)) for s in range(0, reps, chunk)]
        # A worker process runs its passes on one thread (see
        # samples.stream_blocks), so k workers start k threads, not k times
        # the cores.
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(_run_range, [config] * len(spans),
                                  [s for s, _ in spans], [e for _, e in spans]))
        records = [record for part in parts for record in part]

    columns = {name: [record[name] for record in records] for name in records[0]}
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
