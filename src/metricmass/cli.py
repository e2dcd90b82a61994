"""Command-line surface: estimation, bound evaluation, simulation campaigns,
Wasserstein sweeps, classification and coding reports.

Outputs are machine-first (JSON and CSV, floats at 17 significant digits)
and every file embeds the resolved configuration and root seed.  Exit codes:
0 on success, 1 when a stated hypothesis was violated at computation time
(results are still written unless --hypothesis-strict), 2 on usage or IO
errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .applications import (
    ProximityClassifier,
    classify_batch,
    coding_report,
    false_alarm_certificate,
    save_classifier,
)
from .bounds import bound_reports, check_t, hypothesis_warnings
from .distributions import draw_sample, spec_from_dict
from .estimators import good_turing_interval, sequential_bounds
from .oracles import exact_wasserstein_1d, has_exact_w1
from .samples import Sample, sample_from_csv, sample_from_json
from .separation import (
    DEFAULT_CAP,
    check_cap,
    eh_upper_from_sample,
    h_clique_relaxed,
    h_exact,
    h_upper_bound,
)
from .serialize import dump_json, write_csv, write_json
from .simulate import SimulationConfig, run_campaign
from .spaces import parse_space
from .wasserstein import default_r_grid, w1_report


class UsageError(Exception):
    pass


class HypothesisViolation(Exception):
    pass


def _load_sample(path: str, space_arg: str | None) -> Sample:
    if not os.path.exists(path):
        raise UsageError(f"input file not found: {path}")
    space = parse_space(space_arg) if space_arg else None
    try:
        if path.endswith(".json"):
            return sample_from_json(path, space)
        return sample_from_csv(path, space)
    except (ValueError, OSError) as exc:
        message = str(exc)  # the readers name the file in some messages
        raise UsageError(message if message.startswith(path) else f"{path}: {message}") from exc


def _parse_spec(payload):
    try:
        return spec_from_dict(payload)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad distribution spec: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _pick(cfg: dict, flag, key: str, fallback):
    """A command-line value, else the config file's ``key``, else ``fallback``."""
    return flag if flag is not None else cfg.get(key, fallback)


def _stop_if_strict(args, warnings) -> None:
    """Raise before anything is written when a hypothesis warning stands
    under --hypothesis-strict."""
    if warnings and args.hypothesis_strict:
        raise HypothesisViolation("; ".join(warnings))


# -- subcommands --------------------------------------------------------------

def cmd_estimate(args) -> int:
    check_t(args.t)
    check_cap(args.h_cap)
    sample = _load_sample(args.input, args.space)
    delta = args.delta
    n = sample.n
    g_int = good_turing_interval(sample, args.r, delta)
    t_all, slack, mart = sequential_bounds(sample, args.r, delta)
    clique = h_clique_relaxed(sample, args.r)
    h_rep = h_exact(sample, args.r, cap=args.h_cap, clique=clique)
    h_upper, e_h_source = h_upper_bound(h_rep, clique, sample.space)
    e_h = eh_upper_from_sample(h_upper, delta)

    reports = bound_reports(e_h, n, [args.t])
    warnings = list(hypothesis_warnings(n))
    _stop_if_strict(args, warnings)

    config = {"command": "estimate", "version": __version__, "input": args.input,
              "space": args.space, "n": n, "r": args.r, "delta": delta,
              "t": args.t, "h_cap": args.h_cap}
    payload = {
        "config": config,
        "good_turing": g_int.to_dict(),
        "martingale_min_bound": mart.to_dict(),
        "h": h_rep.to_dict(),
        "h_clique": clique.to_dict(),
        "e_h_upper": e_h,
        "e_h_source": e_h_source,
        "bounds": [rep.to_dict() for rep in reports],
        "warnings": warnings,
    }
    write_json(args.out + ".json", payload)
    write_csv(args.out + ".csv", {"m": np.arange(1, n + 1), "martingale_estimate": t_all,
                                  "slack": slack,
                                  "upper_bound": np.minimum(1.0, t_all + slack)}, config)
    return 1 if warnings else 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    spec_payload = cfg.get("distribution") or cfg.get("spec")
    if args.distribution:
        spec_payload = json.loads(args.distribution)
    if spec_payload is None:
        raise UsageError("simulate needs a distribution (config key or flag)")
    spec = _parse_spec(spec_payload)
    sim = SimulationConfig(
        spec=spec,
        n=int(_pick(cfg, args.n, "n", 100)),
        r=float(_pick(cfg, args.r, "r", 0.5)),
        delta=float(_pick(cfg, args.delta, "delta", 0.1)),
        replicates=int(_pick(cfg, args.replicates, "replicates", 100)),
        seed=int(_pick(cfg, args.seed, "seed", 0)),
        workers=int(_pick(cfg, args.workers, "workers", 1)),
        m_list=tuple(int(m) for m in
                     (args.m_list.split(",") if args.m_list else cfg.get("m_list", []))),
        t_list=tuple(float(t) for t in
                     (args.t_list.split(",") if args.t_list else cfg.get("t_list", [1.0, 3.0]))),
        compute_h=bool(_pick(cfg, args.compute_h or None, "compute_h", False)),
        h_cap=int(_pick(cfg, args.h_cap, "h_cap", DEFAULT_CAP)),
    )
    warnings = hypothesis_warnings(sim.n)
    _stop_if_strict(args, warnings)
    result = run_campaign(sim)
    write_json(args.out + ".json", {"config": result["config"],
                                    "aggregate": result["aggregate"]})
    write_csv(args.out + ".csv", result["columns"], result["config"])
    return 1 if warnings else 0


def cmd_bounds(args) -> int:
    reports = bound_reports(args.e_h, args.n, args.t)
    warnings = list(hypothesis_warnings(args.n))
    _stop_if_strict(args, warnings)
    payload = {
        "config": {"command": "bounds", "version": __version__, "n": args.n,
                   "E_h": args.e_h, "t": list(args.t)},
        "bounds": [rep.to_dict() for rep in reports],
        "warnings": warnings,
    }
    if args.out:
        write_json(args.out, payload)
    else:
        print(dump_json(payload))
    return 1 if warnings else 0


def cmd_wasserstein(args) -> int:
    cfg = _load_config(args.config)
    spec = None
    spec_payload = cfg.get("distribution")
    if args.distribution:
        spec_payload = json.loads(args.distribution)
    if spec_payload is not None:
        spec = _parse_spec(spec_payload)

    seed = int(_pick(cfg, args.seed, "seed", 0))
    if args.input:
        sample = _load_sample(args.input, args.space)
    elif spec is not None:
        n = int(_pick(cfg, args.n, "n", 500))
        sample = draw_sample(spec, n, seed)
    else:
        raise UsageError("wasserstein needs --input or a distribution")

    if args.r_grid:
        grid = [float(v) for v in args.r_grid.split(",")]
    elif cfg.get("r_grid"):
        grid = [float(v) for v in cfg["r_grid"]]
    else:
        try:
            grid = default_r_grid(sample)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    delta = float(_pick(cfg, args.delta, "delta", 0.1))
    reports = w1_report(sample, grid, delta, mu_spec=spec, seed=seed)
    config = {"command": "wasserstein", "version": __version__,
              "input": args.input, "n": sample.n, "delta": delta,
              "r_grid": grid, "seed": seed,
              "distribution": spec_payload, "scale": reports[0].scale}
    payload = {"config": config, "reports": [rep.to_dict() for rep in reports]}
    if spec is not None and has_exact_w1(spec, sample):
        payload["exact_w1"] = exact_wasserstein_1d(spec, sample)
    write_json(args.out + ".json", payload)
    names = ("r", "m", "delta", "lower", "upper_a", "upper_b", "scale")
    write_csv(args.out + ".csv", {k: [getattr(rep, k) for rep in reports] for k in names}, config)
    return 0


def cmd_classify(args) -> int:
    train = _load_sample(args.train, args.space)
    clf = ProximityClassifier(training=train, gamma=args.gamma)
    config = {"command": "classify", "version": __version__, "train": args.train,
              "gamma": args.gamma, "n": train.n}
    if args.save_model:
        save_classifier(clf, args.save_model)
    payload = {"config": config}
    if args.certificate_delta is not None:
        cert = false_alarm_certificate(clf, args.certificate_delta,
                                       method=args.certificate_method)
        payload["false_alarm_certificate"] = cert.to_dict()
    if args.queries:
        queries = _load_sample(args.queries, args.space)
        verdicts = classify_batch(clf, queries.points)
        write_csv(args.out + ".csv", {"index": np.arange(len(verdicts)), "verdict": verdicts}, config)
        payload["n_queries"] = queries.n
        payload["n_anomalous"] = sum(v == "anomalous" for v in verdicts)
    write_json(args.out + ".json", payload)
    return 0


def cmd_code(args) -> int:
    sample = _load_sample(args.input, args.space)
    report = coding_report(sample, args.epsilon, args.delta,
                           use_net=args.use_net, diameter=args.diameter)
    config = {"command": "code", "version": __version__, "input": args.input,
              "epsilon": args.epsilon, "delta": args.delta,
              "use_net": args.use_net, "diameter": args.diameter, "n": sample.n}
    write_json(args.out + ".json", {"config": config, "report": report.to_dict()})
    return 0


# -- parser --------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="metricmass",
        description="Missing-mass estimation and concentration bounds in metric spaces")
    parser.add_argument("--hypothesis-strict", action="store_true",
                        help="turn hypothesis warnings into hard errors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimators, h and bounds for one sample")
    p.add_argument("--input", required=True)
    p.add_argument("--space", default=None)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--h-cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="Monte Carlo campaign against the bounds")
    p.add_argument("--config", default=None)
    p.add_argument("--distribution", default=None, help="inline JSON spec")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--m-list", default=None)
    p.add_argument("--t-list", default=None)
    p.add_argument("--compute-h", action="store_true", default=False)
    p.add_argument("--h-cap", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="evaluate the closed-form bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e-h", type=float, default=1.0)
    p.add_argument("--t", type=float, nargs="+", default=[1.0])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("wasserstein", help="two-sided W1 bounds over a radius grid")
    p.add_argument("--config", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--space", default=None)
    p.add_argument("--distribution", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--r-grid", default=None, help="comma-separated radii")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_wasserstein)

    p = sub.add_parser("classify", help="proximity classification with certificate")
    p.add_argument("--train", required=True)
    p.add_argument("--space", default=None)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--queries", default=None)
    p.add_argument("--certificate-delta", type=float, default=None)
    p.add_argument("--certificate-method", default="martingale_min",
                   choices=["martingale_min", "good_turing"])
    p.add_argument("--save-model", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("code", help="nearest-neighbor coding report")
    p.add_argument("--input", required=True)
    p.add_argument("--space", default=None)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--use-net", action="store_true")
    p.add_argument("--diameter", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_code)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
