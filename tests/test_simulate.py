import math
import os
import textwrap

import pytest

from metricmass import samples, simulate
from metricmass.distributions import (
    LowdimEmbeddingSpec,
    PointMassSpec,
    ScaledIndicatorSpec,
    UniformIntervalSpec,
    discrete_uniform,
    discrete_zipf,
    draw_sample,
)
from metricmass.estimators import good_turing, sequential_bounds
from metricmass.oracles import (
    MONTE_CARLO,
    conditional_missing_mass,
    expected_missing_mass,
    oracle_branch,
)
from metricmass.samples import SUMMARY_BLOCK_ELEMENTS
from metricmass.separation import h_exact
from metricmass.simulate import SimulationConfig, run_campaign

from helpers import run_script


def small_config(**kw):
    base = dict(spec=discrete_uniform(10), n=40, r=0.5, delta=0.1,
                replicates=30, seed=7)
    base.update(kw)
    return SimulationConfig(**base)


def test_columns_shape_and_names():
    cfg = small_config(m_list=(10, 40))
    columns = run_campaign(cfg)["columns"]
    assert list(columns) == ["replicate", "good_turing", "martingale_full",
                             "martingale_min_bound", "mhat_oracle", "h",
                             "martingale_m10", "martingale_m40"]
    assert all(len(col) == 30 for col in columns.values())
    assert columns["replicate"] == list(range(30))


def test_same_seed_identical_results():
    a = run_campaign(small_config())
    b = run_campaign(small_config())
    assert a["columns"] == b["columns"]
    assert a["aggregate"] == b["aggregate"]


def test_different_seed_differs():
    a = run_campaign(small_config())
    b = run_campaign(small_config(seed=8))
    assert a["columns"] != b["columns"]


def test_worker_count_does_not_change_results():
    serial = run_campaign(small_config(replicates=24, workers=1))
    parallel = run_campaign(small_config(replicates=24, workers=4))
    assert serial["columns"] == parallel["columns"]
    assert serial["aggregate"] == parallel["aggregate"]


def test_workers_beyond_the_cores_start_no_more_processes(monkeypatch):
    # A forked pool starts every worker it is given at the first submit: a
    # campaign asking for a million asks the pool for at most the cores.
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", Recorder)
    many = run_campaign(small_config(replicates=24, workers=10 ** 6))
    assert len(asked) <= 1 and all(k <= samples._cores() for k in asked)
    assert many == run_campaign(small_config(replicates=24))


# A large pass starts the pool's threads; a forked child inherits the pool
# but not its threads.  The campaign's workers must still finish with the
# serial campaign's output, and a pass in a plain forked child must run.  A
# worker process of a pool runs even a large pass on one thread, starting
# no pool of its own.
AFTER_A_THREADED_PASS = textwrap.dedent("""
    import json, multiprocessing, os
    from concurrent.futures import ProcessPoolExecutor
    import numpy as np
    from metricmass import samples
    from metricmass.distributions import discrete_uniform
    from metricmass.simulate import SimulationConfig, run_campaign

    samples.THREADED_MIN_BLOCKS = 0
    samples._cores = lambda: 2
    points = np.random.default_rng(0).normal(size=(1500, 2))
    expected = samples.make_sample(points).nearest_distances()
    assert samples._pool is not None

    def pass_in_a_worker():
        same = np.array_equal(samples.make_sample(points).nearest_distances(), expected)
        return same, samples._pool is None

    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as workers:
        assert workers.submit(pass_in_a_worker).result() == (True, True)
    config = dict(spec=discrete_uniform(10), n=40, r=0.5, replicates=30, seed=7)
    serial = run_campaign(SimulationConfig(workers=1, **config))
    parallel = run_campaign(SimulationConfig(workers=2, **config))
    assert json.dumps(serial) == json.dumps(parallel)
    pid = os.fork()
    if pid == 0:
        same = np.array_equal(samples.make_sample(points).nearest_distances(), expected)
        os._exit(0 if same else 1)
    assert os.waitpid(pid, 0)[1] == 0
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_workers_after_a_threaded_pass():
    code, err = run_script(AFTER_A_THREADED_PASS, timeout=120)
    assert code == 0, err


def test_oracle_column_present_for_exact_specs():
    result = run_campaign(small_config(replicates=10))
    assert all(v is not None for v in result["columns"]["mhat_oracle"])
    agg = result["aggregate"]
    assert "mhat" in agg
    assert "good_turing_bias" in agg
    bias = agg["good_turing_bias"]
    assert bias["expected_mass"] == expected_missing_mass(discrete_uniform(10), 40, 0.5).value
    assert 0 - 4 * bias["sigma"] <= bias["mean"] <= bias["upper_limit"] + 4 * bias["sigma"]


def test_martingale_aggregates_track_bounds():
    cfg = small_config(replicates=200, m_list=(20,), t_list=(0.2,))
    agg = run_campaign(cfg)["aggregate"]
    seq = agg["martingale"][0]
    assert seq["m"] == 20
    assert seq["bias_limit"] == pytest.approx(math.log(40 / 20))
    tail = seq["tails"][0]
    assert tail["absolute"]["bound"] == pytest.approx(math.exp(-20 * 0.04 / 2))
    assert tail["absolute"]["frequency"] <= tail["absolute"]["bound"] + 3 * tail["absolute"]["sigma"] + 0.05


def test_compute_h_column():
    cfg = small_config(replicates=5, compute_h=True)
    result = run_campaign(cfg)
    assert result["columns"]["h"] == [1] * 5  # discrete metric
    assert result["aggregate"]["h"]["mean"] == 1.0


def test_continuous_spec_without_finite_oracle_uses_interval_branch(monkeypatch):
    # Its expected mass would be Monte Carlo, which the aggregate never
    # reports, so the campaign must not compute it.
    def refuse(*args, **kwargs):
        raise AssertionError("expected_missing_mass called for a non-finite spec")

    monkeypatch.setattr("metricmass.simulate.expected_missing_mass", refuse)
    cfg = SimulationConfig(spec=UniformIntervalSpec(0, 1), n=30, r=0.05,
                           replicates=10, seed=1)
    result = run_campaign(cfg)
    assert all(v is not None for v in result["columns"]["mhat_oracle"])
    assert "mhat" in result["aggregate"]
    assert "good_turing_bias" not in result["aggregate"]


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replicates=0)
    with pytest.raises(ValueError):
        small_config(m_list=(100,))
    with pytest.raises(ValueError):
        small_config(delta=2.0)
    for t in (0.0, math.nan):
        with pytest.raises(ValueError, match="t must be positive"):
            small_config(t_list=(1.0, t))
    with pytest.raises(ValueError, match="h_cap must be at least 1"):
        small_config(h_cap=0)


# One spec per oracle branch: finite on the discrete metric, where atom
# indices count the covering balls (r < 1) or every ball covers every atom
# (r >= 1), and on atom points, which gather the atom distance matrix;
# interval on a line and on the scaled indicator; Monte Carlo, which
# leaves the oracle column off.
BRANCH_CASES = {
    "discrete-below-1": (discrete_zipf(30), 0.5),
    "discrete-at-1": (discrete_zipf(30), 1.0),
    "point-mass": (PointMassSpec(((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)), (0.2, 0.3, 0.5)), 1.0),
    "uniform": (UniformIntervalSpec(0.0, 1.0), 0.01),
    "scaled-indicator": (ScaledIndicatorSpec(2.0), 0.1),
    "monte-carlo": (LowdimEmbeddingSpec(2, 3), 0.3),
}
# Replicates per sample size: blocks hold SUMMARY_BLOCK_ELEMENTS // n^2
# replicates (65,536, 29,127, 907, 26 and 1), so each count but the last
# leaves a partial block, and 53 at n = 100 two full blocks before it.
REPLICATES = {2: 5, 3: 5, 17: 5, 100: 53, 600: 2}


def one_sample_columns(config):
    """The campaign's columns from the one-sample functions, a replicate at
    a time."""
    oracle = oracle_branch(config.spec) != MONTE_CARLO
    columns = {}
    for i in range(config.replicates):
        sample = draw_sample(config.spec, config.n, [config.seed, i])
        t, _, bound = sequential_bounds(sample, config.r, config.delta)
        row = {
            "replicate": i,
            "good_turing": good_turing(sample, config.r),
            "martingale_full": float(t[-1]),
            "martingale_min_bound": bound.value,
            "mhat_oracle": (conditional_missing_mass(config.spec, sample, config.r).value
                            if oracle else None),
            "h": h_exact(sample, config.r, cap=config.h_cap).value if config.compute_h else None,
            **{f"martingale_m{m}": float(t[m - 1]) for m in config.m_list},
        }
        for name, value in row.items():
            columns.setdefault(name, []).append(value)
    return columns


def exact(columns):
    """Each column's values by repr, which tells -0.0 and types apart."""
    return [(name, [repr(v) for v in values]) for name, values in columns.items()]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", sorted(REPLICATES))
@pytest.mark.parametrize("case", BRANCH_CASES)
def test_blocks_match_one_sample_functions(case, n, workers):
    spec, r = BRANCH_CASES[case]
    assert n == 600 or REPLICATES[n] % max(1, SUMMARY_BLOCK_ELEMENTS // (n * n))
    config = SimulationConfig(spec=spec, n=n, r=r, replicates=REPLICATES[n], seed=5,
                              workers=workers, m_list=tuple(m for m in (1, 2, 50) if m <= n),
                              compute_h=n <= 17)
    assert exact(run_campaign(config)["columns"]) == exact(one_sample_columns(config))
