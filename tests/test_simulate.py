import math
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import metricmass
from metricmass.distributions import UniformIntervalSpec, discrete_uniform
from metricmass.oracles import expected_missing_mass
from metricmass.simulate import SimulationConfig, run_campaign


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


# A large pass starts the pool's threads; a forked child inherits the pool
# but not its threads.  The campaign's workers must still finish with the
# serial campaign's output, and a pass in a plain forked child must run.
AFTER_A_THREADED_PASS = textwrap.dedent("""
    import json, os
    import numpy as np
    from metricmass import samples
    from metricmass.distributions import discrete_uniform
    from metricmass.simulate import SimulationConfig, run_campaign

    samples.THREADED_MIN_BLOCKS = 0
    samples._cores = lambda: 2
    points = np.random.default_rng(0).normal(size=(1500, 2))
    expected = samples.make_sample(points).nearest_distances()
    assert samples._pool is not None
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
    env = dict(os.environ, PYTHONPATH=str(Path(metricmass.__file__).parents[1]))
    # In a session of its own, so a hung worker or child is killed with it.
    with subprocess.Popen([sys.executable, "-c", AFTER_A_THREADED_PASS], env=env,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as run:
        try:
            _, err = run.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            raise
    assert run.returncode == 0, err


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
