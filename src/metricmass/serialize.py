"""Deterministic machine-first report serialization.

Floats are rendered with 17 significant digits, enough to round-trip IEEE
doubles exactly, so reports produced from identical inputs are byte
identical.  The JSON writer is a small recursive formatter rather than the
stdlib encoder because the latter offers no hook for float formatting.
"""
from __future__ import annotations

import json
from dataclasses import fields

import numpy as np


def format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(float(x), ".17g")


def _normalize(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def dump_json(obj, indent: int = 0) -> str:
    obj = _normalize(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    pad = " " * (indent + 2)
    closing = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}{json.dumps(str(k))}: {dump_json(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{closing}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}{dump_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{closing}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


class Record:
    """Base of the frozen report dataclasses: ``to_dict`` lists the fields in
    declaration order, tuples as lists, dicts copied and nested records as
    their dicts."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj))
        fh.write("\n")


def csv_cell(value) -> str:
    value = _normalize(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def write_csv(path, columns: dict, config: dict | None = None) -> None:
    """One column per ``columns`` entry (name -> sequence or array), in key
    order, after one ``# config`` line of compact JSON if ``config`` is given."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in cols]}")
    with open(path, "w") as fh:
        if config is not None:
            fh.write("# config " + json.dumps(json.loads(dump_json(config))) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in zip(*cols):
            fh.write(",".join(csv_cell(v) for v in row) + "\n")
