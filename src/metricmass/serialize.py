"""Deterministic machine-first report serialization.

Floats are rendered with 17 significant digits, enough to round-trip IEEE
doubles exactly, so reports produced from identical inputs are byte
identical.  The JSON writer is a small recursive formatter rather than the
stdlib encoder because the latter offers no hook for float formatting.
"""
from __future__ import annotations

import json
import math
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


# The renderer of each scalar type a list may hold flat, by exact type; a
# list holding anything else (a bool, a numpy scalar, a nested item) renders
# each item recursively.
_FLAT = {str: json.dumps, int: str, float: format_float}


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
        if _FLAT.keys() >= set(map(type, obj)):
            items = [_FLAT[type(v)](v) for v in obj]
        else:
            items = [dump_json(v, indent + 2) for v in obj]
        return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{closing}]"
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


def _csv_column(col) -> tuple[str, list]:
    """One printf conversion for a whole column, and the values it takes:
    ``%d`` for integers, ``%.17g`` for floats with no NaN or infinity (the
    same digits as :func:`format_float`), else ``%s`` over :func:`csv_cell`.
    A column is an array, or a sequence of Python values all of one type."""
    if isinstance(col, np.ndarray):
        kind, values = col.dtype.kind, col.tolist()
        finite = kind == "f" and np.isfinite(col).all()
    else:
        values = list(col)
        types = set(map(type, values))
        kind = "i" if types == {int} else "f" if types == {float} else "O"
        finite = kind == "f" and all(map(math.isfinite, values))
    if kind in "iu":
        return "%d", values
    if finite:
        return "%.17g", values
    return "%s", [csv_cell(v) for v in values]


def write_csv(path, columns: dict, config: dict | None = None) -> None:
    """One column per ``columns`` entry (name -> sequence or array), in key
    order, after one ``# config`` line of compact JSON if ``config`` is given."""
    if len({len(c) for c in columns.values()}) > 1:
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns.values()]}")
    parts = [_csv_column(c) for c in columns.values()]
    row = ",".join(conv for conv, _ in parts) + "\n"
    with open(path, "w") as fh:
        if config is not None:
            fh.write("# config " + json.dumps(json.loads(dump_json(config))) + "\n")
        fh.write(",".join(columns) + "\n")
        fh.write("".join(row % cells for cells in zip(*(values for _, values in parts))))
