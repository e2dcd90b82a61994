"""Acceptance suite: every advertised inequality checked empirically.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Monte Carlo checks allow a three-standard-error slack on the estimated
frequency or moment; analytic oracles contribute no slack of their own.
"""
import math
import json

import numpy as np
import pytest

from metricmass.cli import main as cli_main
from metricmass.distributions import (
    LowdimEmbeddingSpec,
    ScaledIndicatorSpec,
    UniformIntervalSpec,
    adversarial_pair,
    discrete_uniform,
    discrete_zipf,
    draw_sample,
)
from metricmass.estimators import all_martingale_estimates, good_turing
from metricmass.oracles import (
    conditional_missing_mass,
    exact_wasserstein_1d,
    expected_missing_mass,
)
from metricmass.samples import Sample, make_sample
from metricmass.separation import h_exact
from metricmass.spaces import discrete, precomputed
from metricmass.wasserstein import w1_report

from helpers import dense_matrix, h_grid_oracle

ROOT_SEED = 20260809


def check(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def se_of_mean(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / math.sqrt(len(x)))


def se_of_variance(x: np.ndarray) -> float:
    m = x.mean()
    m2 = ((x - m) ** 2).mean()
    m4 = ((x - m) ** 4).mean()
    return float(math.sqrt(max(m4 - m2 * m2, 0.0) / len(x)))


def se_for_bound(bound: float, reps: int) -> float:
    v = bound * (1.0 - bound) if bound <= 0.5 else 0.25
    return math.sqrt(v / reps) + 1.0 / reps


# -- shared campaigns ----------------------------------------------------------

@pytest.fixture(scope="module")
def discrete_campaign():
    """5000 replicates of discrete uniform on 20 symbols, n=100, r=0.5."""
    spec = discrete_uniform(20)
    n, r, reps = 100, 0.5, 5000
    g = np.empty(reps)
    mhat = np.empty(reps)
    for i in range(reps):
        s = draw_sample(spec, n, [ROOT_SEED, 1, i])
        g[i] = good_turing(s, r)
        mhat[i] = conditional_missing_mass(spec, s, r).value
    return {"spec": spec, "n": n, "r": r, "g": g, "mhat": mhat}


@pytest.fixture(scope="module")
def zipf_campaign():
    """5000 replicates of Zipf weights over 50 symbols, n=200, r=0.5."""
    spec = discrete_zipf(50)
    n, r, reps = 200, 0.5, 5000
    ms = (50, 100, 200)
    t_m = {m: np.empty(reps) for m in ms}
    mhat = np.empty(reps)
    for i in range(reps):
        s = draw_sample(spec, n, [ROOT_SEED, 2, i])
        t_all = all_martingale_estimates(s, r)
        for m in ms:
            t_m[m][i] = t_all[m - 1]
        mhat[i] = conditional_missing_mass(spec, s, r).value
    return {"n": n, "t_m": t_m, "mhat": mhat}


# -- criteria -------------------------------------------------------------------

def test_criterion_1_good_turing_bias(discrete_campaign):
    c = discrete_campaign
    expected = expected_missing_mass(c["spec"], c["n"], c["r"])
    assert expected.method == "analytic"
    bias = c["g"].mean() - expected.value
    sigma = se_of_mean(c["g"])
    ok = -3 * sigma <= bias <= 1.0 / c["n"] + 3 * sigma
    check("1 good-turing bias in [0, 1/n]", ok,
          f"bias={bias:.5f} band=[{-3 * sigma:.5f}, {1 / c['n'] + 3 * sigma:.5f}]")


def test_criterion_2_l2_error(discrete_campaign):
    results = []
    c = discrete_campaign
    sq = (c["g"] - c["mhat"]) ** 2
    ok_d = sq.mean() <= 7.0 / c["n"] + 3 * se_of_mean(sq)
    results.append((f"discrete n={c['n']}", math.sqrt(sq.mean()),
                    math.sqrt(7.0 / c["n"]), ok_d))

    spec = UniformIntervalSpec(0.0, 1.0)
    for n, reps in ((50, 1200), (200, 1200), (800, 800)):
        r = 2.0 / n  # scale with typical nearest-neighbor spacing
        sq = np.empty(reps)
        for i in range(reps):
            s = draw_sample(spec, n, [ROOT_SEED, 3, n, i])
            g = good_turing(s, r)
            m = conditional_missing_mass(spec, s, r).value
            sq[i] = (g - m) ** 2
        ok = sq.mean() <= 7.0 / n + 3 * se_of_mean(sq)
        results.append((f"uniform n={n}", math.sqrt(sq.mean()),
                        math.sqrt(7.0 / n), ok))
    detail = "; ".join(f"{tag}: rms={rms:.4f} limit={lim:.4f}"
                       for tag, rms, lim, _ in results)
    check("2 estimation L2 error <= sqrt(7/n)", all(r[-1] for r in results), detail)


def test_criterion_3_martingale_tails(zipf_campaign):
    c = zipf_campaign
    reps = len(c["mhat"])
    rows = []
    ok_all = True
    for m in (50, 200):
        for t in (0.1, 0.2):
            gap = c["mhat"] - c["t_m"][m]
            freq_abs = float((gap > t).mean())
            bound_abs = math.exp(-m * t * t / 2.0)
            ok_abs = freq_abs <= bound_abs + 3 * se_for_bound(min(bound_abs, 1.0), reps)

            gap_rel = c["mhat"] - 2.0 * c["t_m"][m]
            freq_rel = float((gap_rel > t).mean())
            bound_rel = math.exp(-m * t / (4.0 * (math.e - 2.0)))
            ok_rel = freq_rel <= bound_rel + 3 * se_for_bound(min(bound_rel, 1.0), reps)

            ok_all = ok_all and ok_abs and ok_rel
            rows.append(f"m={m} t={t}: abs {freq_abs:.4f}<={bound_abs:.4f}, "
                        f"rel {freq_rel:.4f}<={bound_rel:.4f}")
    check("3 sequential-estimator tail bounds", ok_all, "; ".join(rows))


def test_criterion_4_martingale_bias(zipf_campaign):
    c = zipf_campaign
    n = c["n"]
    m = n // 2
    gap = c["t_m"][m] - c["mhat"]
    limit = math.log(n / (n - m))
    sigma = se_of_mean(gap)
    ok = gap.mean() <= limit + 3 * sigma
    check("4 sequential-estimator bias <= ln(n/(n-m))", ok,
          f"mean={gap.mean():.4f} limit={limit:.4f} sigma={sigma:.5f}")


def test_criterion_5_adversarial_variance():
    eps, n, r, reps = 0.125, 12, 1.2, 10_000
    mu, _ = adversarial_pair(n, eps, r)
    space = precomputed(mu.atom_distance_matrix())
    g = np.empty(reps)
    mhat = np.empty(reps)
    b_event = np.empty(reps, dtype=bool)
    norms = np.ones(mu.dim + 1)
    norms[0] = 0.0  # atom index 0 is the origin
    for i in range(reps):
        rng = np.random.default_rng([ROOT_SEED, 5, i])
        idx = mu.sample_indices(n, rng)
        s = Sample(idx, space, atom_indices=idx)
        g[i] = good_turing(s, r)
        mhat[i] = conditional_missing_mass(mu, s, r).value
        d = dense_matrix(s)
        iu = np.triu_indices(n, 1)
        b_event[i] = bool((d[iu] > r).all() and (norms[idx] <= 1.0).all())

    floor = 0.25 - eps
    var_m = float(mhat.var(ddof=1))
    var_g = float(g.var(ddof=1))
    ok_m = var_m >= floor - 3 * se_of_variance(mhat)
    ok_g = var_g >= floor - 3 * se_of_variance(g)
    p_b = float(b_event.mean())
    ok_b = p_b >= 0.5 - eps - 3 * math.sqrt(p_b * (1 - p_b) / reps)
    check("5 adversarial variance floor and distinct-basis event",
          ok_m and ok_g and ok_b,
          f"var(Mhat)={var_m:.4f} var(G)={var_g:.4f} floor={floor:.4f} "
          f"P(B)={p_b:.4f}>={0.5 - eps:.4f}-slack (D={mu.dim})")


def test_criterion_6_h_correctness():
    rng = np.random.default_rng([ROOT_SEED, 6])
    boundary = 0
    exact_matches = 0
    instances = 200
    for _ in range(instances):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(4, 13))
        pts = rng.uniform(size=(n, dim))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        r = float(np.quantile(d[np.triu_indices(n, 1)], 0.4)) * 0.8
        if r <= 1e-6:
            r = 0.1
        ours = h_exact(make_sample(pts), r).value
        strict = h_grid_oracle(pts, r, accept_tol=0.0)
        tolerant = h_grid_oracle(pts, r)
        assert strict <= ours <= tolerant, (dim, n, r, strict, ours, tolerant)
        if strict == tolerant:
            assert ours == strict, (dim, n, r, ours, strict)
            exact_matches += 1
        else:
            boundary += 1
    ok_grid = boundary <= 0.1 * instances

    ok_discrete = True
    for i in range(20):
        sub_rng = np.random.default_rng([ROOT_SEED, 6, 1, i])
        syms = sub_rng.choice(list("abcdefgh"), size=int(sub_rng.integers(2, 30)))
        s = make_sample(np.array(syms), discrete())
        for r in (0.3, 0.5, 0.9, 1.5):
            rep = h_exact(s, r)
            ok_discrete = ok_discrete and rep.value == 1 and rep.certified == "exact"

    spec = ScaledIndicatorSpec(p=2.0)
    ok_indicator = True
    for i in range(200):
        s = draw_sample(spec, 25, [ROOT_SEED, 6, 2, i])
        for r in (0.2, 0.5, 1.0):
            ok_indicator = ok_indicator and h_exact(s, r).value <= 5

    uniform = UniformIntervalSpec(0.0, 1.0)
    ok_line = True
    for i in range(200):
        s = draw_sample(uniform, 20, [ROOT_SEED, 6, 3, i])
        sub_rng = np.random.default_rng([ROOT_SEED, 6, 4, i])
        ok_line = ok_line and h_exact(s, float(sub_rng.uniform(0.01, 0.4))).value <= 2

    check("6 local-separation statistic correctness",
          ok_grid and ok_discrete and ok_indicator and ok_line,
          f"grid: {exact_matches} exact, {boundary} boundary-tolerance cases; "
          f"discrete h=1 {ok_discrete}; step-embedding h<=5 {ok_indicator}; "
          f"1-D h<=2 {ok_line}")


def test_criterion_7_variance_and_tail_soundness():
    spec = discrete_uniform(20)
    r, reps = 0.5, 2000
    e_h = 1.0  # exact under the discrete metric
    rows = []
    ok_all = True
    for n in (100, 400):
        g = np.empty(reps)
        mhat = np.empty(reps)
        for i in range(reps):
            s = draw_sample(spec, n, [ROOT_SEED, 7, n, i])
            g[i] = good_turing(s, r)
            mhat[i] = conditional_missing_mass(spec, s, r).value
        var_g_limit = 2.0 * (1.0 + e_h) / n
        var_m_limit = (2.0 * e_h + 4.0 * (math.e - 2.0) * (math.log(n) + 1.0)) / (n - 1)
        ok_var = g.var(ddof=1) <= var_g_limit and mhat.var(ddof=1) <= var_m_limit
        ok_tail = True
        for t in (1.0, 3.0):
            thr_g = 12.0 * math.sqrt((1.0 + e_h) * t / n) + 23.0 * t / math.sqrt(n)
            thr_m = 12.0 * math.sqrt(e_h * t / n) + 37.0 * t / math.sqrt(n - 1)
            freq_g = float((np.abs(g - g.mean()) > thr_g).mean())
            freq_m = float((np.abs(mhat - mhat.mean()) > thr_m).mean())
            ok_tail = (ok_tail and freq_g <= min(1.0, 15.0 * math.exp(-t))
                       and freq_m <= min(1.0, 2.0 * n * math.exp(-t)))
        ok_all = ok_all and ok_var and ok_tail
        rows.append(f"n={n}: var(G)={g.var(ddof=1):.5f}<={var_g_limit:.5f}, "
                    f"var(M)={mhat.var(ddof=1):.5f}<={var_m_limit:.5f}, tails ok={ok_tail}")
    check("7 h-driven variance and tail bounds sound", ok_all, "; ".join(rows))


def test_criterion_8_h_concentration_coverage():
    spec = LowdimEmbeddingSpec(2, 2)
    n, r, t = 30, 0.15, 1.0
    # Independent large run estimating E[h] on a single stream.
    big_rng = np.random.default_rng([ROOT_SEED, 8, 0])
    big_reps = 100_000
    total = 0
    for _ in range(big_reps):
        s = Sample(spec.sample(n, big_rng), spec.space())
        total += h_exact(s, r).value
    e_h = total / big_reps

    reps = 5000
    hold = np.empty(reps, dtype=bool)
    for i in range(reps):
        s = draw_sample(spec, n, [ROOT_SEED, 8, 1, i])
        h_val = h_exact(s, r).value
        hold[i] = e_h <= (math.sqrt(h_val) + math.sqrt(2.0 * t)) ** 2
    freq = float(hold.mean())
    floor = 1.0 - math.exp(-t)
    ok = freq >= floor - 3 * se_for_bound(floor, reps)
    check("8 expected-h coverage from one sample", ok,
          f"E[h]~{e_h:.3f} coverage={freq:.4f} >= {floor:.4f}-slack")


def test_criterion_9_wasserstein_sandwich():
    spec = UniformIntervalSpec(0.0, 1.0)
    n, delta, reps = 500, 0.1, 500
    lower_violations = 0
    upper_violations = 0
    skipped = 0
    for i in range(reps):
        s = draw_sample(spec, n, [ROOT_SEED, 9, i])
        reports = w1_report(s, None, delta, mu_spec=spec)
        exact = exact_wasserstein_1d(spec, s)
        lower = max(rep.lower for rep in reports)
        uppers = [min(rep.upper_a, rep.upper_b) for rep in reports
                  if rep.upper_b is not None]
        if not uppers:
            skipped += 1
            continue
        if exact < lower - 1e-12:
            lower_violations += 1
        if exact > min(uppers):
            upper_violations += 1
    upper_rate = upper_violations / (reps - skipped)
    ok = (lower_violations == 0
          and upper_rate <= delta + 3 * math.sqrt(delta * (1 - delta) / reps))
    check("9 transport-distance sandwich", ok,
          f"lower violations={lower_violations}, upper rate={upper_rate:.4f} "
          f"<= {delta}+slack, skipped={skipped}")


def test_criterion_10_convergence_threshold():
    spec = UniformIntervalSpec(0.0, 1.0)
    r, horizon, paths = 0.05, 2000, 100
    checkpoints = (250, 500, 1000, 2000)
    ok = True
    worst = 0.0
    for p in range(paths):
        rng = np.random.default_rng([ROOT_SEED, 10, p])
        xs = spec.sample(horizon, rng)
        values = []
        for n in checkpoints:
            s = Sample(xs[:n], spec.space())
            values.append(conditional_missing_mass(spec, s, r).value)
        ok = ok and all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        ok = ok and values[-1] < 0.01
        worst = max(worst, values[-1])
    check("10 missing mass vanishes along sample paths", ok,
          f"all {paths} paths antitone and below 0.01 by n={horizon} "
          f"(worst final {worst:.5f})")


def test_criterion_11_campaign_determinism(tmp_path):
    spec = {"kind": "discrete", "symbols": [f"s{i}" for i in range(10)],
            "weights": [0.1] * 10}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distribution": spec, "n": 30, "r": 0.5,
                               "replicates": 30, "seed": 11,
                               "m_list": [10, 30]}))
    blobs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"run_{tag}"
        code = cli_main(["simulate", "--config", str(cfg), "--workers", workers,
                         "--out", str(out)])
        assert code == 0
        blobs.append((out.with_suffix(".json").read_bytes(),
                      out.with_suffix(".csv").read_bytes()))
    ok = blobs[0] == blobs[1] == blobs[2]
    check("11 campaign outputs byte-identical across runs and worker counts",
          ok, f"json {len(blobs[0][0])} bytes, csv {len(blobs[0][1])} bytes")
