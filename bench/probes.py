"""The metricmass functions the traced run wraps, and the per-layer metrics
computed from their spans.  The metrics a run reports, and their units,
are the ``per_layer`` list of ``BENCHMARK.json``.

Every function is wrapped at each module that binds it, so the copies made
by ``from .x import f`` in ``cli``, ``simulate``, ``wasserstein`` and
``applications`` are traced as well.  Oracle calls are attributed to a
branch from outside: a Monte Carlo result is the ``monte_carlo`` branch, an
analytic result for a finite-support spec the ``finite`` branch, and any
other analytic result the ``interval`` branch.
"""
from __future__ import annotations

import importlib
import os
import sys

FINITE_KINDS = frozenset({"discrete", "point_mass", "sphere_atom", "basis_uniform"})


def _oracle_branch(span, args, kwargs, result) -> None:
    spec = args[0] if args else kwargs["spec"]
    if result.method == "monte_carlo":
        span.name = "oracles.monte_carlo"
        span.extra["test_points"] = result.n_test
    elif spec.kind in FINITE_KINDS:
        span.name = "oracles.finite"
    else:
        span.name = "oracles.interval"


def _pairs(span, args, kwargs, result) -> None:
    span.extra["pairs"] = int(result.size)


def _net_size(span, args, kwargs, result) -> None:
    span.extra["net_size"] = len(result)


def _exact(span, args, kwargs, result) -> None:
    span.extra["exact"] = int(result.certified == "exact")


def _bytes(span, args, kwargs, result) -> None:
    span.extra["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])


# (module, attribute or Class.attribute, span name, annotate)
TRACED = [
    ("oracles", "conditional_missing_mass", "oracles.conditional_missing_mass", _oracle_branch),
    ("oracles", "smoothed_oracle_H", "oracles.smoothed_oracle_H", _oracle_branch),
    ("oracles", "expected_missing_mass", "oracles.expected_missing_mass", None),
    ("oracles", "exact_wasserstein_1d", "oracles.exact_wasserstein_1d", None),
    ("distributions", "draw_sample", "distributions.draw_sample", None),
    ("spaces", "MetricSpace.cross_distances", "spaces.cross_distances", _pairs),
    ("estimators", "good_turing", "estimators.good_turing", None),
    ("estimators", "escape_indicators", "estimators.escape_indicators", None),
    ("estimators", "martingale_upper_bound", "estimators.martingale_upper_bound", None),
    ("wasserstein", "default_r_grid", "wasserstein.default_r_grid", None),
    ("wasserstein", "w1_upper_bounds", "wasserstein.w1_upper_bounds", None),
    ("wasserstein", "w1_report", "wasserstein.w1_report", None),
    ("samples", "Sample.diameter", "samples.Sample.diameter", None),
    ("samples", "farthest_first_net", "samples.farthest_first_net", _net_size),
    ("samples", "verify_net", "samples.verify_net", None),
    ("samples", "sample_from_csv", "samples.sample_from_csv", None),
    ("applications", "classify_batch", "applications.classify_batch", None),
    ("applications", "false_alarm_certificate", "applications.false_alarm_certificate", None),
    ("applications", "coding_report", "applications.coding_report", None),
    ("separation", "h_exact", "separation.h_exact", _exact),
    ("separation", "h_clique_relaxed", "separation.h_clique_relaxed", None),
    ("meb", "meb_radius", "meb.meb_radius", None),
    ("simulate", "run_campaign", "simulate.run_campaign", None),
    ("serialize", "write_json", "serialize.write_json", _bytes),
]

# Called tens of thousands of times per pass from inside the h search;
# timing each call would inflate the search's own time, so only counted.
COUNTED = [("meb", "three_point_radius", "meb.three_point_radius")]

# The names ``_oracle_branch`` gives the oracle spans.
BRANCHES = ("oracles.interval", "oracles.finite", "oracles.monte_carlo")

# Statistics a per-layer metric ``<span>.<stat>`` may report: per traced
# pass, except ``exact_ratio``, the share of calls certified exact.
STATS = ("calls", "self_s", "pairs", "test_points", "net_size", "bytes", "exact_ratio")


def span_names() -> set[str]:
    """Every span name a traced pass can record below its ``cli.<command>``
    root span."""
    return ({name for _, _, name, _ in TRACED} | set(BRANCHES)
            | {name for _, _, name in COUNTED})


def install(tracer) -> None:
    """Wrap every probe in the already imported metricmass package."""
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "metricmass" or name.startswith("metricmass.")]
    for module_name, path, name, annotate in TRACED:
        owner, attr = _resolve(module_name, path)
        tracer.patch(owner, attr, lambda fn, n=name, a=annotate: tracer.traced(fn, n, a),
                     modules)
    for module_name, path, name in COUNTED:
        owner, attr = _resolve(module_name, path)
        tracer.patch(owner, attr, lambda fn, n=name: tracer.counted(fn, n), modules)


def _resolve(module_name: str, path: str):
    module = importlib.import_module(f"metricmass.{module_name}")
    cls, _, attr = path.rpartition(".")
    return (getattr(module, cls) if cls else module), attr


def is_target(span_name: str, targets) -> bool:
    """Whether a span belongs to a workload's target modules; a target
    ending in '.' names a whole module, anything else one span name."""
    return any(span_name.startswith(t) if t.endswith(".") else span_name == t
               for t in targets)


def per_layer_metrics(tracer, passes: int, names, targets, overhead_ratio: float) -> dict:
    """The per-layer metrics ``names`` (``<span>.<stat>`` or ``trace.*``),
    averaged over ``passes`` traced passes."""
    totals = tracer.totals()
    counted = {name for _, _, name in COUNTED}
    op_s = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    target_s = sum(s.self_s for s in tracer.spans if is_target(s.name, targets))
    trace = {"trace.overhead_ratio": overhead_ratio,
             "trace.target_share": target_s / op_s if op_s > 0 else 0.0}
    out = {}
    for metric in names:
        span, stat = metric.rsplit(".", 1)
        entry = totals.get(span, {})
        if metric in trace:
            value = trace[metric]
        elif stat == "exact_ratio":
            value = entry.get("exact", 0) / entry["calls"] if entry else 0.0
        elif span in counted:
            value = tracer.counts.get(span, 0) / passes
        else:
            value = entry.get(stat, 0) / passes
        out[metric] = value
    return out
