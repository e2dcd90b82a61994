"""metricmass benchmark runner.

    python3 bench/run.py --workload validate --seed 0 --seconds 40 --trace 0

A single-process closed loop: each operation is one in-process
``metricmass.cli.main([...])`` call, issued only after the previous one
returned and its output was checked.  A pass runs the workload's fixed list
of operations once; passes repeat until ``--seconds`` is spent.  The
program is imported from ``src/`` next to this directory, never from an
installed copy.  Set-up time is the median of three imports (this
process's and two in child interpreters, run one at a time and finished
before the first pass) plus the median of three input builds.

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced passes; traced passes wrap the
functions listed in ``probes.py`` and report per-layer metrics per traced
pass, and the spans are written to ``.bench_out/`` when the run ends.

Output: a readable summary, then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Set-up time runs from here: the import of the program and its numpy and
# scipy dependencies dominates it.
_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The import and the input generation are each measured this often during
# set-up; their medians count.
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import metricmass.cli; "
                "print(time.perf_counter() - t)")



def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics a run reports."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_op(cli, op, tracer=None) -> tuple[float, bool]:
    """Time one CLI call, inside the operation's root span when traced, then
    check its output after the span has closed, so the check is neither
    timed nor traced.  Exit 0, or 1 with outputs written (a hypothesis
    warning), counts as success."""
    span = tracer.open(f"cli.{op.command}") if tracer else None
    start = time.perf_counter()
    try:
        code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    if code not in (0, 1):
        print(f"operation failed with exit code {code}: {op.argv}", file=sys.stderr)
        return wall, False
    try:
        op.check()
    except Exception:
        print(f"output check failed: {op.argv}", file=sys.stderr)
        traceback.print_exc()
        return wall, False
    return wall, True


def run_pass(cli, ops, tracer=None) -> dict:
    times: dict[str, float] = {}
    failed = 0
    for op in ops:
        wall, ok = run_op(cli, op, tracer)
        times[op.command] = times.get(op.command, 0.0) + wall
        failed += not ok
    return {"pass_s": sum(times.values()), "commands": times, "failed": failed,
            "replicates": sum(op.replicates for op in ops)}


def measure(cli, ops, seconds: float, tracer=None) -> tuple[list[dict], list[dict]]:
    """Run passes until ``seconds`` are spent; with a tracer, every second
    pass is traced.  A pass starts only if a typical pass fits in the time
    left, so a run never lasts much longer than ``seconds``."""
    import probes
    plain: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        t = time.perf_counter()
        if use_trace:
            probes.install(tracer)
            try:
                traced.append(run_pass(cli, ops, tracer))
            finally:
                tracer.unpatch()
        else:
            plain.append(run_pass(cli, ops))
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        enough = plain and (tracer is None or traced)
        if enough and elapsed + statistics.median(walls) > seconds:
            return plain, traced


def _median(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def median_import_s(first: float) -> float:
    """Median of this process's import time and SETUP_REPEATS - 1 more, each
    measured in a fresh interpreter, since a process imports a module once."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return statistics.median(times)


def summary_lines(name, seed, setup_s, import_s, plain, rss_mb, attempted, failed):
    """Every end-to-end figure with its unit and sample count, including
    the per-command times that only some workloads have."""
    n = len(plain)
    rows = [("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} imports "
                                          f"({import_s:.3f} s) + median of "
                                          f"{SETUP_REPEATS} input builds"),
            ("pass_s", _median(plain, "pass_s"), "s", f"median of {n} passes")]
    for cmd in plain[0]["commands"]:
        rows.append((f"{cmd}_s", statistics.median(p["commands"][cmd] for p in plain),
                     "s", f"median of {n} passes"))
    if plain[0]["replicates"]:
        rate = statistics.median(p["replicates"] / p["commands"]["simulate"] for p in plain)
        rows.append(("replicates_per_s", rate, "1/s", f"median of {n} passes"))
    rows.append(("peak_rss_mb", rss_mb, "MB", "1 process"))
    rows.append(("error_rate", failed / attempted, "ratio", f"{failed}/{attempted} operations"))
    lines = [f"workload {name}  seed {seed}  passes {n}"]
    lines += [f"  {metric:<18} {value:>12.4f} {unit:<6} {note}"
              for metric, value, unit, note in rows]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "metricmass" / "__init__.py").is_file():
        print(f"error: no metricmass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metricmass.cli as cli
    first_import_s = time.perf_counter() - _T0

    import probes
    import workloads
    from tracer import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    import_s = median_import_s(first_import_s)
    with open(HERE / "layers.json") as fh:
        targets = json.load(fh)["workloads"][args.workload]["targets"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
            builds.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(builds)
        tracer = Tracer() if args.trace else None
        plain, traced = measure(cli, ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = len(ops) * len(passes)
    failed = sum(p["failed"] for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in summary_lines(args.workload, args.seed, setup_s, import_s, plain,
                              rss_mb, attempted, failed):
        print(line)

    if args.trace:
        overhead = _median(traced, "pass_s") / _median(plain, "pass_s")
        entries = spec["per_layer"]
        values = probes.per_layer_metrics(tracer, len(traced), [m["name"] for m in entries],
                                          targets, overhead)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        print(f"per layer, per traced pass ({len(traced)} traced passes; spans in "
              f"{trace_path.relative_to(ROOT)})")
        for m in entries:
            print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    else:
        entries = spec["end_to_end"]
        values = {"setup_s": setup_s, "pass_s": _median(plain, "pass_s"),
                  "peak_rss_mb": rss_mb}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
