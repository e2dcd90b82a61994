"""Self-tests of the benchmark: tracer arithmetic, output checks, and the
metric lists.  Run with ``python3 -m pytest -q bench``."""
from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from metricmass import cli  # noqa: E402


# -- tracer --------------------------------------------------------------------

def _ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def _library():
    """``lib`` defines leaf/inner/outer; ``user`` holds the copy of ``inner``
    that ``from lib import inner`` would make, and ``outer`` calls it."""
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def leaf():
        return 1

    def inner():
        return lib.leaf() + 1

    def outer():
        return user.inner() + user.inner()

    lib.leaf, lib.inner, lib.outer = leaf, inner, outer
    user.inner = inner
    return lib, user


def test_self_time_subtracts_children():
    lib, user = _library()
    originals = (lib.inner, lib.leaf)
    tracer = Tracer(clock=_ticking_clock())
    for name in ("leaf", "inner", "outer"):
        tracer.patch(lib, name, lambda fn, n=name: tracer.traced(fn, n), modules=[user])
    assert user.inner is lib.inner is not originals[0]

    op = tracer.open("op")                      # t=0
    assert lib.outer() == 4                     # outer 1..10, inner 2..5 and 6..9,
    tracer.close(op)                            # leaf 3..4 and 7..8; op ends at 11

    totals = tracer.totals()
    assert totals["leaf"] == {"calls": 2, "self_s": 2.0}
    assert totals["inner"] == {"calls": 2, "self_s": 4.0}   # 2 x (3 - 1)
    assert totals["outer"] == {"calls": 1, "self_s": 3.0}   # 9 - 2 x 3
    assert totals["op"] == {"calls": 1, "self_s": 2.0}      # 11 - 9
    assert {s.op for s in tracer.spans} == {1}
    by_id = {s.ident: s for s in tracer.spans}
    assert [by_id[s.parent].name if s.parent is not None else None
            for s in tracer.spans] == [None, "op", "outer", "inner", "outer", "inner"]

    tracer.unpatch()
    assert (lib.inner, lib.leaf) == originals and user.inner is originals[0]


def test_wrappers_record_nothing_outside_an_operation():
    lib, user = _library()
    tracer = Tracer(clock=_ticking_clock())
    tracer.patch(lib, "leaf", lambda fn: tracer.traced(fn, "leaf"))
    tracer.patch(lib, "inner", lambda fn: tracer.counted(fn, "inner"), modules=[user])
    assert lib.outer() == 4
    assert tracer.spans == [] and tracer.counts == {}
    op = tracer.open("op")
    lib.outer()
    tracer.close(op)
    assert tracer.counts == {"inner": 2}
    assert tracer.totals()["leaf"]["calls"] == 2


def test_probes_install_and_remove_cleanly():
    import metricmass.separation as separation
    from metricmass.spaces import MetricSpace
    before = (separation.meb_radius, separation.h_exact, MetricSpace.cross_distances)
    tracer = Tracer()
    probes.install(tracer)
    assert separation.meb_radius is not before[0]
    assert cli.h_exact is separation.h_exact is not before[1]
    tracer.unpatch()
    assert (separation.meb_radius, separation.h_exact, MetricSpace.cross_distances) == before


# -- output checks -------------------------------------------------------------

def _run(*argv):
    assert cli.main([str(a) for a in argv]) in (0, 1)


def _edit_json(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _edit_lines(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture
def grid(tmp_path):
    points = workloads.jittered_grid(np.random.default_rng(5), 8)
    return points, workloads._write_points(tmp_path / "points.csv", points)


def test_estimate_check(tmp_path, grid):
    points, path = grid
    r, out = 0.25, str(tmp_path / "est")

    def fresh():
        _run("estimate", "--input", path, "--r", r, "--out", out)
        checks.check_estimate(out, points, r)

    def bump_g(p):
        p["good_turing"]["value"] += 1.0 / len(points)

    def close_pair_witness(p):
        d = checks.distances(points, points)
        np.fill_diagonal(d, np.inf)
        p["h"].update(value=2, witness=[0, int(d[0].argmin())])

    for corrupt in (lambda: _edit_json(out + ".json", bump_g),
                    lambda: _edit_json(out + ".json", close_pair_witness),
                    lambda: _edit_lines(out + ".csv", list.pop)):
        fresh()
        corrupt()
        with pytest.raises(checks.CheckFailed):
            checks.check_estimate(out, points, r)


def test_campaign_check(tmp_path):
    spec = {"kind": "uniform_interval", "a": 0.0, "b": 1.0}
    out, n, r, seed, reps = str(tmp_path / "sim"), 50, 0.01, 3, 20
    first = workloads._drawn_points(spec, n, [seed, 0]).reshape(-1)

    def fresh():
        _run("simulate", "--distribution", json.dumps(spec), "--n", n, "--r", r,
             "--replicates", reps, "--seed", seed, "--m-list", "10", "--out", out)
        checks.check_campaign(out, reps, uniform_first=(first, r))

    def set_cell(column, value):
        def edit(lines):
            header = lines[1].split(",")
            cells = lines[2].split(",")
            cells[header.index(column)] = value
            lines[2] = ",".join(cells)
        return edit

    for edit in (list.pop, set_cell("good_turing", "1.5"),
                 set_cell("mhat_oracle", repr(1.0 - checks.union_length(first, r) + 1e-6))):
        fresh()
        _edit_lines(out + ".csv", edit)
        with pytest.raises(checks.CheckFailed):
            checks.check_campaign(out, reps, uniform_first=(first, r))


def test_w1_check(tmp_path):
    spec = {"kind": "lowdim_embedding", "d_intrinsic": 2, "d_ambient": 5}
    out, n, seed = str(tmp_path / "w1"), 60, 1
    points = workloads._drawn_points(spec, n, seed)

    def fresh():
        _run("wasserstein", "--distribution", json.dumps(spec), "--n", n,
             "--seed", seed, "--out", out)
        checks.check_w1(out, points)

    def miss_one(p):
        report = next(rep for rep in p["reports"] if rep["m"] > 1)
        del report["net_indices"][report["m"] // 2]
        report["m"] -= 1

    def miscount(p):
        p["reports"][0]["m"] += 1

    for edit in (miss_one, miscount):
        fresh()
        _edit_json(out + ".json", edit)
        with pytest.raises(checks.CheckFailed):
            checks.check_w1(out, points)


def test_code_check(tmp_path, grid):
    points, path = grid
    out, eps = str(tmp_path / "code"), 0.5

    def miss_one(p):
        report = p["report"]
        net = report["codebook"]
        del net[len(net) // 2]
        report["exceed_prob_estimate"]["m"] = len(net)

    _run("code", "--input", path, "--epsilon", eps, "--use-net", "--out", out)
    checks.check_code(out, points, eps)
    _edit_json(out + ".json", miss_one)
    with pytest.raises(checks.CheckFailed):
        checks.check_code(out, points, eps)


def test_verdict_check(tmp_path, grid):
    train, path = grid
    queries = np.vstack([train[:5] + 0.01, train[:5] + 5.0])
    query_path = workloads._write_points(tmp_path / "queries.csv", queries)
    out, gamma = str(tmp_path / "verdicts"), 0.1
    _run("classify", "--train", path, "--gamma", gamma, "--queries", query_path,
         "--out", out)
    checks.check_verdicts(out, train, queries, gamma)

    def flip(lines):
        index, verdict = lines[2].split(",")
        lines[2] = f"{index},{'normal' if verdict == 'anomalous' else 'anomalous'}"

    _edit_lines(out + ".csv", flip)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdicts(out, train, queries, gamma)


def test_union_length_merges_overlaps_and_clips():
    assert checks.union_length([0.0, 0.05, 0.5, 0.99], 0.1) == pytest.approx(
        0.15 + 0.2 + 0.11)


# -- runner and metric lists -----------------------------------------------------

def test_output_check_runs_outside_the_operation_span():
    """A check that calls a traced function records no span and adds nothing
    to the operation's time."""
    lib, user = _library()
    tracer = Tracer(clock=_ticking_clock())
    tracer.patch(lib, "inner", lambda fn: tracer.traced(fn, "inner"), modules=[user])
    fake_cli = types.SimpleNamespace(main=lambda argv: 0 if lib.inner() == 2 else 2)
    op = workloads.Op(["estimate"], check=lambda: lib.outer())
    _, ok = run.run_op(fake_cli, op, tracer)
    assert ok
    assert [s.name for s in tracer.spans] == ["cli.estimate", "inner"]
    assert tracer.totals()["inner"]["calls"] == 1


def test_metric_lists_match_benchmark_json():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = json.loads((HERE / "layers.json").read_text())
    assert list(layers["workloads"]) == list(workloads.WORKLOADS)
    spans = probes.span_names()
    commands = {"estimate", "simulate", "wasserstein", "code", "classify"}
    prefixes = [p for row in layers["per_layer"] for p in row["spans"]]
    for m in spec["per_layer"]:
        span, stat = m["name"].rsplit(".", 1)
        if span == "trace":
            assert stat in ("overhead_ratio", "target_share")
        else:
            assert span in spans or span.removeprefix("cli.") in commands, span
            assert stat in probes.STATS, stat
        assert sum(m["name"].startswith(p) for p in prefixes) == 1, m["name"]
