import copy
import json

import numpy as np
import pytest

from metricmass import cli, simulate
from metricmass.cli import main
from metricmass.distributions import spec_from_dict
from metricmass.samples import sample_from_csv
from metricmass.separation import eh_upper_from_sample, h_clique_relaxed, h_exact
from metricmass.spaces import (
    SPACE_FORMS,
    MetricSpace,
    discrete,
    euclidean,
    lp,
    parse_space,
    scaled_indicator,
    space_from_dict,
)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def test_estimate_constant_sample(tmp_path):
    sample = tmp_path / "pts.csv"
    write_csv(sample, [[1.0]] * 4)
    out = tmp_path / "report"
    code = main(["estimate", "--input", str(sample), "--r", "1.0",
                 "--delta", "0.1", "--out", str(out)])
    assert code == 1  # n = 4 violates the n >= 16 hypothesis, still computed
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["good_turing"]["value"] == 0.0
    assert payload["warnings"]
    rows = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert rows[1].split(",")[0] == "m"
    # T_4 = 0.25 for four identical points.
    last = rows[-1].split(",")
    assert float(last[1]) == 0.25


def test_estimate_discrete_symbols(tmp_path):
    sample = tmp_path / "sym.csv"
    sample.write_text("a\na\nb\nc\n")
    out = tmp_path / "rep"
    code = main(["estimate", "--input", str(sample), "--r", "0.5",
                 "--out", str(out)])
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["good_turing"]["value"] == 0.5
    assert payload["h"]["value"] == 1


@pytest.mark.parametrize("option, space", [([], None), (["--space", "lp:2,1.0"], lp(2, 1.0))])
def test_estimate_h_is_the_bounded_search(option, space, tmp_path):
    # On the 1-norm the witness reaches ω, which makes h exact there too.
    rng = np.random.default_rng(3)
    cells = np.stack(np.meshgrid(np.arange(10), np.arange(10)), -1).reshape(-1, 2)
    path = tmp_path / "grid.csv"
    write_csv(path, (cells + rng.uniform(size=cells.shape)) / 10)
    argv = ["estimate", "--input", str(path), "--r", "0.2", "--out", str(tmp_path / "rep")]
    main(argv + option)
    payload = json.loads((tmp_path / "rep.json").read_text())
    sample = sample_from_csv(str(path), space)
    clique = h_clique_relaxed(sample, 0.2)
    assert payload["h_clique"] == clique.to_dict()
    assert payload["h"] == h_exact(sample, 0.2, clique=clique).to_dict()
    assert payload["h"]["certified"] == "exact"
    assert payload["e_h_source"] == "h"


@pytest.mark.parametrize("draw", [1, 2])
@pytest.mark.parametrize("cap, source, h_upper", [(None, "clique", 4), (3, "packing_cap", 3)])
def test_estimate_e_h_comes_from_an_upper_bound_on_h(draw, cap, source, h_upper, tmp_path,
                                                     monkeypatch):
    # On these 1-norm samples h = 3 is only a lower bound while ω = 4, so
    # E[h] is estimated from ω, or from a packing cap below ω (patched in:
    # the built-in caps exceed ω on small samples).
    if cap is not None:
        monkeypatch.setattr(MetricSpace, "packing_cap", property(lambda self: cap))
    rng = np.random.default_rng(3)
    points = [rng.uniform(size=(40, 2)) for _ in range(3)][draw]
    path = tmp_path / "pts.csv"
    np.savetxt(path, points, fmt="%.17g", delimiter=",")
    main(["estimate", "--input", str(path), "--space", "lp:2,1", "--r", "0.2",
          "--out", str(tmp_path / "rep")])
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert (payload["h"]["value"], payload["h"]["certified"]) == (3, "lower_bound")
    assert payload["h_clique"]["value"] == 4
    e_h = eh_upper_from_sample(h_upper, 0.1)
    assert (payload["e_h_upper"], payload["e_h_source"]) == (e_h, source)
    assert [rep["inputs"]["E_h"] for rep in payload["bounds"][:4]] == [e_h] * 4


def test_estimate_missing_file(tmp_path, capsys):
    code = main(["estimate", "--input", str(tmp_path / "nope.csv"),
                 "--r", "1.0", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_estimate_nan_coordinate_is_usage_error(tmp_path, capsys):
    sample = tmp_path / "pts.csv"
    write_csv(sample, [[0.0], ["nan"], [5.0]])
    out = tmp_path / "report"
    code = main(["estimate", "--input", str(sample), "--r", "1.0", "--out", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_ragged_csv_names_the_row(tmp_path, capsys):
    sample = tmp_path / "pts.csv"
    write_csv(sample, [["x", "y"], [1, 2], [3, 4], [5]])
    out = tmp_path / "report"
    code = main(["estimate", "--input", str(sample), "--r", "1.0", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {sample}: data row 3 has 1 column(s) where data row 1 has 2\n")
    assert not (tmp_path / "report.json").exists()


def test_bad_csv_cell_past_the_header_check_names_the_cell(tmp_path, capsys):
    # The header rule reads the first two rows cell by cell; later rows are
    # parsed in one call, which names the cell as float() does.
    sample = tmp_path / "pts.csv"
    write_csv(sample, [["x", "y"], [1, 2], [3, 4], [5, "1e3x"], [7, 8]])
    out = tmp_path / "report"
    code = main(["estimate", "--input", str(sample), "--r", "1.0", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {sample}: could not convert string to float: '1e3x'\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_hypothesis_strict_aborts(command, tmp_path):
    sample = tmp_path / "pts.csv"
    write_csv(sample, [[1.0]] * 4)
    argv = {"estimate": ["estimate", "--input", str(sample), "--r", "1.0"],
            "simulate": ["simulate", "--distribution", '{"kind": "uniform_interval", "a": 0, "b": 1}',
                         "--n", "8", "--r", "0.1", "--replicates", "3"]}[command]
    code = main(["--hypothesis-strict"] + argv + ["--out", str(tmp_path / "r")])
    assert code == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pts.csv"]
    # Without the flag the violation still exits 1, with both outputs written.
    assert main(argv + ["--out", str(tmp_path / "r")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pts.csv", "r.csv", "r.json"]


def test_simulate_deterministic_across_runs_and_workers(tmp_path):
    spec = {"kind": "discrete",
            "symbols": [f"s{i}" for i in range(10)],
            "weights": [0.1] * 10}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distribution": spec, "n": 30, "r": 0.5,
                               "replicates": 20, "seed": 5}))
    outputs = {}
    for tag, workers in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / f"run_{tag}"
        code = main(["simulate", "--config", str(cfg), "--workers", workers,
                     "--out", str(out)])
        assert code == 0
        outputs[tag] = ((tmp_path / f"run_{tag}.json").read_bytes(),
                        (tmp_path / f"run_{tag}.csv").read_bytes())
    assert outputs["a"] == outputs["b"]
    assert outputs["a"] == outputs["c"]


def test_simulate_needs_distribution(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path / "x")])
    assert code == 2


def test_bounds_stdout(capsys):
    code = main(["bounds", "--n", "100", "--e-h", "1.0", "--t", "1.0", "3.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    kinds = [b["kind"] for b in payload["bounds"]]
    assert "variance_G" in kinds and "tail_Mhat" in kinds
    var_g = next(b for b in payload["bounds"] if b["kind"] == "variance_G")
    assert var_g["value"] == 0.04


def test_bounds_small_n_exit_code(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["bounds", "--n", "8", "--t", "1", "3", "--out", str(out)]) == 1
    # One copy of the warning, not one per E_h-driven report.
    warnings = json.loads(out.read_text())["warnings"]
    assert len(warnings) == 1 and "n = 8" in warnings[0]
    assert main(["--hypothesis-strict", "bounds", "--n", "8", "--t", "1", "3"]) == 1
    assert capsys.readouterr().err == f"hypothesis violation: {warnings[0]}\n"


def test_wasserstein_from_distribution(tmp_path):
    out = tmp_path / "w1"
    spec = json.dumps({"kind": "uniform_interval", "a": 0.0, "b": 1.0})
    code = main(["wasserstein", "--distribution", spec, "--n", "200",
                 "--seed", "3", "--delta", "0.1",
                 "--r-grid", "0.05,0.1,0.2", "--out", str(out)])
    assert code == 0
    payload = json.loads((tmp_path / "w1.json").read_text())
    assert len(payload["reports"]) == 3
    exact = payload["exact_w1"]
    lowers = [rep["lower"] for rep in payload["reports"]]
    uppers = [min(rep["upper_a"], rep["upper_b"]) for rep in payload["reports"]
              if rep["upper_b"] is not None]
    assert max(lowers) <= exact <= min(uppers)
    lines = (tmp_path / "w1.csv").read_text().splitlines()
    assert lines[0].startswith("# config")
    assert lines[1] == "r,m,delta,lower,upper_a,upper_b,scale"


@pytest.mark.parametrize("spec, exact", [
    ({"kind": "basis_uniform", "dim": 1}, True),
    ({"kind": "sphere_atom", "dim": 1, "n_design": 50}, True),
    ({"kind": "lowdim_embedding", "d_intrinsic": 1, "d_ambient": 1}, False),
], ids=["basis_uniform", "sphere_atom", "lowdim_embedding"])
def test_wasserstein_on_the_line(spec, exact, tmp_path):
    # Each used to exit 2 after its whole sweep: the command asked for the
    # exact W1 of every 1-D sample, which the oracle had only for point
    # masses and the uniform interval.
    argv = ["wasserstein", "--n", "50", "--seed", "1", "--r-grid", "0.1,0.2"]
    assert main(argv + ["--distribution", json.dumps(spec), "--out", str(tmp_path / "w1")]) == 0
    payload = json.loads((tmp_path / "w1.json").read_text())
    if not exact:
        assert "exact_w1" not in payload
        return
    # A point-mass spec with the same atoms and weights draws the same sample.
    atoms = spec_from_dict(spec)
    twin = {"kind": "point_mass", "points": atoms.atom_points().tolist(),
            "weights": atoms.atom_weights().tolist()}
    assert main(argv + ["--distribution", json.dumps(twin), "--out", str(tmp_path / "pm")]) == 0
    assert payload["exact_w1"] == json.loads((tmp_path / "pm.json").read_text())["exact_w1"]


@pytest.mark.parametrize("seed", [11, None])
def test_wasserstein_echoes_config_file_seed(tmp_path, seed):
    # The sample is drawn with the config file's seed, or 0 without one,
    # and that seed is the one echoed.
    from metricmass.distributions import draw_sample, spec_from_dict
    from metricmass.oracles import exact_wasserstein_1d
    spec = {"kind": "uniform_interval", "a": 0.0, "b": 1.0}
    cfg = {"distribution": spec, "n": 60, "r_grid": [0.05, 0.1]}
    if seed is not None:
        cfg["seed"] = seed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "w1"
    assert main(["wasserstein", "--config", str(cfg_path), "--out", str(out)]) == 0
    drawn = 0 if seed is None else seed
    payload = json.loads((tmp_path / "w1.json").read_text())
    assert payload["config"]["seed"] == drawn
    assert payload["exact_w1"] == exact_wasserstein_1d(
        spec_from_dict(spec), draw_sample(spec_from_dict(spec), 60, drawn))
    header = (tmp_path / "w1.csv").read_text().splitlines()[0]
    assert json.loads(header.removeprefix("# config "))["seed"] == drawn


def test_wasserstein_monte_carlo_oracle_uses_seed(tmp_path):
    # A continuous spec without an exact oracle: the Monte Carlo draw of
    # test points follows --seed (default 0), like the sample's own draw.
    from metricmass.distributions import spec_from_dict
    from metricmass.samples import sample_from_csv
    from metricmass.wasserstein import w1_report
    spec = {"kind": "lowdim_embedding", "d_intrinsic": 2, "d_ambient": 3}
    points = spec_from_dict(spec).sample(40, np.random.default_rng(5))
    sample_path = tmp_path / "x.csv"
    write_csv(sample_path, points.tolist())
    sample = sample_from_csv(str(sample_path))
    mhats = {}
    for seed in (None, 1, 2):
        out = tmp_path / f"w1_{seed}"
        argv = ["wasserstein", "--input", str(sample_path), "--distribution",
                json.dumps(spec), "--r-grid", "0.3,0.6", "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        payload = json.loads((tmp_path / f"w1_{seed}.json").read_text())
        used = 0 if seed is None else seed
        assert payload["config"]["seed"] == used
        mhats[seed] = [rep["mhat"] for rep in payload["reports"]]
        expected = w1_report(sample, [0.3, 0.6], 0.1, mu_spec=spec_from_dict(spec), seed=used)
        assert mhats[seed] == [rep.mhat for rep in expected]
    assert mhats[1] != mhats[2]


def test_wasserstein_oracle_does_not_replay_the_sample_draw(tmp_path, monkeypatch):
    # The sample is drawn from --seed.  Had the Monte Carlo oracle's
    # generator started in the same state, its test points would be a
    # prefix-draw of the sample's stream (the same mixture labels first).
    from metricmass.distributions import LowdimEmbeddingSpec
    starts = []
    draw = LowdimEmbeddingSpec.sample

    def recording(self, count, rng):
        starts.append(copy.deepcopy(rng.bit_generator.state))
        return draw(self, count, rng)

    monkeypatch.setattr(LowdimEmbeddingSpec, "sample", recording)
    spec = json.dumps({"kind": "lowdim_embedding", "d_intrinsic": 2, "d_ambient": 5})
    out = tmp_path / "w1"
    assert main(["wasserstein", "--distribution", spec, "--n", "250", "--seed", "3",
                 "--r-grid", "0.3,0.6", "--out", str(out)]) == 0
    sample_start, oracle_start = starts[:2]
    assert sample_start == np.random.default_rng(3).bit_generator.state
    assert oracle_start != sample_start
    assert oracle_start == np.random.default_rng([3, 1]).bit_generator.state
    assert json.loads((tmp_path / "w1.json").read_text())["config"]["seed"] == 3


def test_wasserstein_invalid_grid(tmp_path, capsys):
    spec = json.dumps({"kind": "uniform_interval", "a": 0.0, "b": 1.0})
    code = main(["wasserstein", "--distribution", spec, "--n", "50",
                 "--r-grid", "0.0,0.1", "--out", str(tmp_path / "x")])
    assert code == 2


def test_classify_round_trip(tmp_path):
    train = tmp_path / "train.csv"
    write_csv(train, [[0.0], [1.0], [2.0]])
    queries = tmp_path / "q.csv"
    write_csv(queries, [[0.5], [9.0]])
    out = tmp_path / "verdicts"
    code = main(["classify", "--train", str(train), "--gamma", "1.0",
                 "--queries", str(queries), "--certificate-delta", "0.1",
                 "--out", str(out)])
    assert code == 0
    rows = (tmp_path / "verdicts.csv").read_text().strip().splitlines()
    assert rows[2].endswith("normal")
    assert rows[3].endswith("anomalous")
    payload = json.loads((tmp_path / "verdicts.json").read_text())
    assert payload["n_anomalous"] == 1
    assert payload["false_alarm_certificate"]["side"] == "upper"


def test_code_command(tmp_path):
    sample = tmp_path / "pts.csv"
    write_csv(sample, [[v] for v in np.linspace(0, 1, 30)])
    out = tmp_path / "coding"
    code = main(["code", "--input", str(sample), "--epsilon", "0.2",
                 "--use-net", "--diameter", "1.0", "--out", str(out)])
    assert code == 0
    payload = json.loads((tmp_path / "coding.json").read_text())
    rep = payload["report"]
    assert rep["exceed_prob_estimate"]["method"] == "net_bound"
    assert rep["expected_error_bound"] == pytest.approx(
        rep["exceed_prob_estimate"]["value"] + 0.2)


@pytest.mark.parametrize("command", ["wasserstein", "estimate", "classify", "code"])
def test_nan_radius_is_usage_error(command, tmp_path):
    # Each used to exit 0 (estimate with G = 0 and NaN in its JSON), and the
    # sweep never returned.
    sample = tmp_path / "pts.csv"
    write_csv(sample, [[v] for v in np.linspace(0, 1, 60)])
    out = tmp_path / "x"
    argv = {
        "wasserstein": ["wasserstein", "--input", str(sample), "--r-grid", "nan,0.5"],
        "estimate": ["estimate", "--input", str(sample), "--r", "nan"],
        "classify": ["classify", "--train", str(sample), "--gamma", "nan",
                     "--certificate-delta", "0.1"],
        "code": ["code", "--input", str(sample), "--epsilon", "nan"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command", ["wasserstein", "estimate", "classify", "code", "simulate"])
def test_infinite_radius_is_usage_error(command, tmp_path, capsys):
    # Each used to exit 0, but code --use-net, which exited 2 with "net is
    # not r-separated"; the sweep wrote lower = Infinity above upper_a.
    sample = tmp_path / "pts.csv"
    write_csv(sample, [[v] for v in np.linspace(0, 1, 60)])
    argv = {
        "wasserstein": ["wasserstein", "--input", str(sample), "--r-grid", "0.5,inf"],
        "estimate": ["estimate", "--input", str(sample), "--r", "inf"],
        "classify": ["classify", "--train", str(sample), "--gamma", "inf",
                     "--certificate-delta", "0.1"],
        "code": ["code", "--input", str(sample), "--epsilon", "inf", "--use-net"],
        "simulate": ["simulate", "--distribution",
                     '{"kind": "uniform_interval", "a": 0, "b": 1}',
                     "--n", "20", "--r", "inf", "--replicates", "3"],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pts.csv"]


@pytest.mark.parametrize("command", ["bounds", "estimate", "simulate"])
def test_fewer_than_two_points_is_usage_error(command, tmp_path, capsys, monkeypatch):
    # Each used to end in a ZeroDivisionError traceback from the M_hat
    # bounds, simulate only after its whole campaign had run.
    monkeypatch.setattr(cli, "run_campaign", lambda config: pytest.fail("campaign ran"))
    sample = tmp_path / "pts.csv"
    write_csv(sample, [[0.5]])
    argv = {"bounds": ["bounds", "--n", "1", "--out", str(tmp_path / "x.json")],
            "estimate": ["estimate", "--input", str(sample), "--r", "0.1",
                         "--out", str(tmp_path / "x")],
            "simulate": ["simulate", "--distribution", '{"kind": "uniform_interval", "a": 0, "b": 1}',
                         "--n", "1", "--replicates", "3", "--out", str(tmp_path / "x")]}[command]
    assert main(argv) == 2
    assert "at least 2" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pts.csv"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["bounds", "--n", "100", "--e-h", "nan"], "E_h must be finite", id="bounds-nan"),
    pytest.param(["bounds", "--n", "100", "--e-h", "inf"], "E_h must be finite", id="bounds-inf"),
    pytest.param(["estimate", "--r", "0.1", "--t", "0"], "t must be positive", id="estimate"),
    pytest.param(["estimate", "--r", "0.1", "--h-cap", "0"], "h_cap must be at least 1",
                 id="estimate-h-cap"),
    pytest.param(["simulate", "--distribution", '{"kind": "uniform_interval", "a": 0, "b": 1}',
                  "--n", "20", "--replicates", "3", "--t-list", "0"], "t must be positive",
                 id="simulate"),
    *(pytest.param(["simulate", "--distribution", '{"kind": "uniform_interval", "a": 0, "b": 1}',
                    "--n", "20", "--replicates", "3", "--workers", workers],
                   "workers must be at least 1", id=f"simulate-workers{workers}")
      for workers in ("0", "-3"))])
def test_bad_bound_parameter_is_usage_error_before_any_work(argv, message, tmp_path, capsys,
                                                            monkeypatch):
    # bounds used to write NaN bounds marked not vacuous and exit 0;
    # estimate and simulate checked t only after their h search or their
    # whole campaign had run, and estimate its h cap only after Good-Turing,
    # the sequential bounds and the clique relaxation.
    monkeypatch.setattr(cli, "h_clique_relaxed", lambda *a, **k: pytest.fail("h search ran"))
    monkeypatch.setattr(simulate, "_run_range", lambda *a: pytest.fail("campaign ran"))
    sample = tmp_path / "pts.csv"
    write_csv(sample, [[v] for v in np.linspace(0, 1, 60)])
    if argv[0] == "estimate":
        argv = argv + ["--input", str(sample)]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pts.csv"]


@pytest.mark.parametrize("command", ["wasserstein", "estimate"])
def test_overflowing_distances_are_usage_error(command, tmp_path, capsys):
    # Finite coordinates near 1e200 give inf distances: estimate used to
    # report G = 1 at r = 1e203, where the truth is 0.
    sample = tmp_path / "pts.csv"
    rng = np.random.default_rng(0)
    write_csv(sample, (rng.uniform(-1, 1, size=(20, 2)) * 1e200).tolist())
    argv = {"wasserstein": ["wasserstein", "--input", str(sample)],
            "estimate": ["estimate", "--input", str(sample), "--r", "1e203"]}[command]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("text, space", [
    ("euclidean:3", euclidean(3)),
    ("lp:2,1.5", lp(2, 1.5)),
    ("lp:1,inf", lp(1, float("inf"))),
    ("discrete", discrete()),
    ("scaled_indicator:2", scaled_indicator(2.0)),
])
def test_space_forms_round_trip(text, space):
    assert parse_space(text) == space
    assert space_from_dict(space.to_dict()) == space


@pytest.mark.parametrize("text", ["euclidean", "euclidean:", "euclidean:2.5", "lp:2",
                                  "lp:2,1,3", "lp:x,2", "discrete:1",
                                  "scaled_indicator", "precomputed", "sphere:2"])
def test_malformed_space_is_usage_error(text, tmp_path, capsys):
    # "euclidean" and "lp:2" used to print raw int() and unpacking errors.
    sample = tmp_path / "pts.csv"
    write_csv(sample, [[v] for v in np.linspace(0, 1, 20)])
    code = main(["estimate", "--input", str(sample), "--space", text, "--r", "0.1",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert SPACE_FORMS in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("text", ["scaled_indicator:inf", "scaled_indicator:nan",
                                  "lp:1,nan", "euclidean:0"])
def test_bad_space_parameter_is_usage_error(text, tmp_path):
    # scaled_indicator:inf used to write a result with d(x, x) = 1 and exit 1.
    sample = tmp_path / "pts.csv"
    write_csv(sample, [[v] for v in np.linspace(0, 1, 20)])
    code = main(["estimate", "--input", str(sample), "--space", text, "--r", "0.1",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert not (tmp_path / "x.json").exists()


def test_discrete_space_reads_numeric_symbols(tmp_path):
    # A numeric one-column file under --space discrete used to be rejected
    # as "discrete points must be a flat sequence of symbols".
    train = tmp_path / "train.csv"
    write_csv(train, [[1], [2], [2], [3]])
    queries = tmp_path / "q.csv"
    write_csv(queries, [[2], [7]])
    out = tmp_path / "verdicts"
    code = main(["classify", "--train", str(train), "--space", "discrete",
                 "--gamma", "0.5", "--queries", str(queries), "--out", str(out)])
    assert code == 0
    rows = (tmp_path / "verdicts.csv").read_text().strip().splitlines()
    assert rows[2:] == ["0,normal", "1,anomalous"]


@pytest.mark.parametrize("command", ["wasserstein", "simulate"])
@pytest.mark.parametrize("spec, field", [
    ({"kind": "uniform_interval"}, "'a'"),
    ({"kind": "discrete"}, "'symbols'"),
    ({"kind": "uniform_interval", "a": 0.0, "b": 1.0, "c": 2.0}, "'c'"),
    ({"kind": "basis_uniform", "dim": "3"}, "'dim'"),
])
def test_malformed_distribution_is_usage_error(command, spec, field, tmp_path, capsys):
    # wasserstein used to raise TypeError or KeyError and exit 1, the code
    # for hypothesis violations.
    code = main([command, "--distribution", json.dumps(spec), "--n", "20",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad distribution spec" in err
    assert spec["kind"] in err and field in err
    assert not (tmp_path / "x.json").exists()


def test_matrix_input_rejects_declared_space(tmp_path, capsys):
    # --space used to be dropped for a {"matrix": ...} input while the
    # config echoed it.
    path = tmp_path / "m.json"
    path.write_text('{"matrix": [[0.0, 2.0], [2.0, 0.0]]}')
    code = main(["estimate", "--input", str(path), "--space", "euclidean:2", "--r", "1.0",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "takes no declared space" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
