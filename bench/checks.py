"""Output checks run after each operation, outside the timed region.

Each check recomputes what it needs by brute force from the benchmark's own
copy of the inputs, and holds for any seed.  Distances come from the same
scipy kernel the program's euclidean and p-norm spaces use, so a pair at
distance exactly r is classified the same way on both sides; everything
else (isolation, nets, unions, verdicts) is plain numpy over all pairs.
"""
from __future__ import annotations

import csv
import json

import numpy as np
from scipy.spatial.distance import cdist

_CHUNK_ELEMS = 2_000_000


class CheckFailed(Exception):
    """An operation's output disagrees with the brute-force reference."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def distances(a, b, p=None) -> np.ndarray:
    """Euclidean distances, or p-norm distances when ``p`` is given."""
    return cdist(a, b) if p is None else cdist(a, b, "minkowski", p=p)


def nearest_distance(a, b, p=None, exclude_self: bool = False) -> np.ndarray:
    """Distance from each row of ``a`` to its nearest row of ``b``, in
    chunks that bound memory; ``exclude_self`` skips the diagonal when
    ``a`` and ``b`` are the same points."""
    out = np.empty(len(a))
    step = max(1, _CHUNK_ELEMS // max(1, len(b)))
    for start in range(0, len(a), step):
        d = distances(a[start:start + step], b, p)
        if exclude_self:
            rows = np.arange(len(d))
            d[rows, start + rows] = np.inf
        out[start:start + step] = d.min(axis=1)
    return out


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CLI CSV, skipping its '# config' line."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header, *rows = list(csv.reader(lines))
    return header, rows


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_net(points, net, r: float, p=None) -> None:
    """``net`` indexes an r-net of ``points``: pairwise > r, and every point
    within r of some net point."""
    idx = np.asarray(net, dtype=int)
    _require(idx.size > 0, "net is empty")
    _require(len(np.unique(idx)) == idx.size, "net repeats an index")
    centres = points[idx]
    if idx.size > 1:
        _require((nearest_distance(centres, centres, p, exclude_self=True) > r).all(),
                 f"net is not separated at r={r!r}")
    _require((nearest_distance(points, centres, p) <= r).all(),
             f"net does not cover the sample at r={r!r}")


def check_estimate(prefix: str, points, r: float, p=None) -> None:
    report = _load(prefix + ".json")
    d = distances(points, points, p)
    np.fill_diagonal(d, np.inf)
    isolated = float(np.mean(d.min(axis=1) > r))
    _require(report["good_turing"]["value"] == isolated,
             f"G {report['good_turing']['value']!r} != isolated fraction {isolated!r}")
    h, clique = report["h"], report["h_clique"]
    for rep in (h, clique):
        _require(len(rep["witness"]) == rep["value"], "witness size != value")
    iu = np.triu_indices(h["value"], k=1)
    _require((d[np.ix_(h["witness"], h["witness"])][iu] > r).all(),
             "h witness is not pairwise > r")
    _require(h["value"] <= clique["value"], "h exceeds its clique upper bound")
    iu = np.triu_indices(clique["value"], k=1)
    pair = d[np.ix_(clique["witness"], clique["witness"])][iu]
    _require(((pair > r) & (pair <= 2.0 * r)).all(),
             "clique witness is not pairwise in (r, 2r]")
    _, rows = read_rows(prefix + ".csv")
    _require(len(rows) == len(points), f"{len(rows)} sequential rows for n={len(points)}")


def union_length(centres, r: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Length of the union of [x - r, x + r] over ``centres``, within [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for x in np.sort(np.asarray(centres, dtype=float)):
        a, b = max(lo, x - r), min(hi, x + r)
        if cur_hi is not None and a <= cur_hi:
            cur_hi = max(cur_hi, b)
            continue
        if cur_hi is not None:
            total += cur_hi - cur_lo
        cur_lo, cur_hi = a, b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return float(total)


def check_campaign(prefix: str, replicates: int, uniform_first=None) -> None:
    """Row count and estimate ranges; with ``uniform_first = (points, r)``
    for a uniform [0, 1] campaign, replicate 0's oracle against the union
    of its balls."""
    header, rows = read_rows(prefix + ".csv")
    _require(len(rows) == replicates, f"{len(rows)} rows for {replicates} replicates")
    columns = [i for i, name in enumerate(header) if name not in ("replicate", "h")]
    values = np.array([[float(row[i]) for i in columns] for row in rows])
    _require(((values >= 0.0) & (values <= 1.0)).all(), "an estimate lies outside [0, 1]")
    if uniform_first is not None:
        points, r = uniform_first
        expected = 1.0 - union_length(points, r)
        got = float(rows[0][header.index("mhat_oracle")])
        _require(abs(got - expected) <= 1e-9,
                 f"replicate 0 oracle {got!r} != 1 - union length {expected!r}")


def check_w1(prefix: str, points) -> None:
    """Every net of the sweep is an r-net of the diameter-normalized
    euclidean sample."""
    reports = _load(prefix + ".json")["reports"]
    _require(len(reports) > 0, "empty sweep")
    for rep in reports:
        _require(rep["m"] == len(rep["net_indices"]), "m != net size")
        scale = rep["scale"]
        normalized = points * (1.0 / scale) if scale != 1.0 else points
        check_net(normalized, rep["net_indices"], rep["r"] / scale)


def check_code(prefix: str, points, epsilon: float) -> None:
    report = _load(prefix + ".json")["report"]
    codebook = report["codebook"]
    _require(report["exceed_prob_estimate"]["m"] == len(codebook), "m != codebook size")
    check_net(points, codebook, epsilon / 2.0)


def check_verdicts(prefix: str, train, queries, gamma: float) -> None:
    """Verdicts follow the rule: anomalous iff the nearest training point
    is farther than gamma."""
    _, rows = read_rows(prefix + ".csv")
    _require(len(rows) == len(queries), f"{len(rows)} verdicts for {len(queries)} queries")
    expected = np.where(nearest_distance(queries, train) > gamma, "anomalous", "normal")
    got = np.array([row[1] for row in rows])
    bad = np.flatnonzero(got != expected)
    _require(bad.size == 0, f"{bad.size} verdicts differ, first at query {bad[:1].tolist()}")
    _require(_load(prefix + ".json")["n_anomalous"] == int((expected == "anomalous").sum()),
             "n_anomalous disagrees with the verdicts")
