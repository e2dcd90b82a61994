import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from metricmass import (
    CodingReport,
    Estimate,
    OracleEstimate,
    SeparationReport,
    WassersteinReport,
    variance_bound_G,
)
from metricmass.serialize import _normalize, csv_cell, dump_json, write_csv

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308, -1e308])
NAMES = st.text(alphabet="abcxyz_0123456789", min_size=1, max_size=6)
CELLS = st.one_of(FLOATS, st.integers(-2**70, 2**70), st.none(), st.booleans(),
                  st.text(alphabet="abc xyz-+.", max_size=5))


def column(length: int):
    """A list of mixed cells, or of integers, floats or booleans alone, or a
    float, integer or boolean array."""
    return st.one_of(
        st.lists(CELLS, min_size=length, max_size=length),
        st.lists(st.integers(-2**70, 2**70), min_size=length, max_size=length),
        st.lists(FLOATS, min_size=length, max_size=length),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=length,
                 max_size=length),
        st.lists(st.booleans(), min_size=length, max_size=length),
        st.lists(FLOATS, min_size=length, max_size=length).map(np.array),
        st.lists(st.integers(-2**62, 2**62), min_size=length, max_size=length).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans(), min_size=length, max_size=length).map(
            lambda v: np.array(v, dtype=bool)),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=length,
                 max_size=length).map(np.array),
        st.lists(st.integers(0, 2**64 - 1), min_size=length, max_size=length).map(
            lambda v: np.array(v, dtype=np.uint64)),
    )


@st.composite
def tables(draw):
    length = draw(st.integers(0, 6))
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    return {name: draw(column(length)) for name in names}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=tables(), config=st.none() | st.just({"seed": 3, "r": 0.25}))
@example(columns={"nan": np.array([np.nan, 0.5]), "inf": np.array([np.inf, -np.inf]),
                  "finite": np.array([-0.0, 5e-324]), "none": [None, 0.5],
                  "bool": np.array([True, False]), "flags": [False, True],
                  "int32": np.array([-3, 7], dtype=np.int32), "npint": [np.int64(4), np.int16(-2)],
                  "str": ["a b", "x-+."], "range": range(2), "ints": [2**70, -1],
                  "floats": [-0.0, 1e308], "mixed": [1, 0.5], "npfloats": [np.float64(0.1), 0.2]},
         config=None)
def test_write_csv_lines_are_the_transposed_columns(columns, config, tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, columns, config)
    lines = path.read_text().split("\n")
    assert lines.pop() == ""
    if config is not None:
        assert json.loads(lines.pop(0).removeprefix("# config ")) == config
    assert lines[0].split(",") == list(columns)
    length = len(next(iter(columns.values())))
    assert lines[1:] == [",".join(csv_cell(col[i]) for col in columns.values())
                         for i in range(length)]


@pytest.mark.parametrize("short", [[1.0], np.array([1.0]), []])
def test_write_csv_rejects_columns_of_unequal_length(short, tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_csv(tmp_path / "table.csv", {"a": np.arange(2), "b": short})


ESTIMATE = Estimate(0.25, "martingale_min", side="upper", delta=0.1, radius=0.5, m=3)
RECORDS = [
    ESTIMATE,
    variance_bound_G(2.0, 8),
    OracleEstimate(0.5, 0.01, "monte_carlo", 0.99, n_test=100, seed=3),
    SeparationReport(2, "exact", "brute_force", witness=(0, 4)),
    WassersteinReport(r=0.1, m=2, delta=0.05, lower=0.0, upper_a=None, upper_b=0.9,
                      net_indices=(1, 5)),
    CodingReport(codebook=(0, 2), epsilon=0.2, exceed_prob_estimate=ESTIMATE),
]


def tuples_in(value) -> int:
    if isinstance(value, tuple):
        return 1
    if isinstance(value, dict):
        return sum(tuples_in(v) for v in value.values())
    if isinstance(value, list):
        return sum(tuples_in(v) for v in value)
    return 0


@pytest.mark.parametrize("record", RECORDS, ids=lambda rec: type(rec).__name__)
def test_record_dict_lists_the_fields_in_order_without_tuples(record):
    d = record.to_dict()
    assert list(d) == [f.name for f in fields(record)]
    assert tuples_in(d) == 0
    assert json.loads(dump_json(d)) == d


def test_coding_report_nests_its_estimate_as_a_dict():
    d = RECORDS[-1].to_dict()
    assert d["exceed_prob_estimate"] == ESTIMATE.to_dict()
    assert d["codebook"] == [0, 2]


def test_bound_report_dict_copies_its_inputs():
    report = RECORDS[1]
    assert report.to_dict()["inputs"] == report.inputs
    assert report.to_dict()["inputs"] is not report.inputs


def recursive_json(obj, indent: int = 0) -> str:
    """The JSON writer with every list item, and every dict value, rendered
    by a recursive call of its own: the reference for lists rendered flat."""
    obj = _normalize(obj)
    pad, closing = " " * (indent + 2), " " * indent
    if isinstance(obj, dict) and obj:
        items = [f"{pad}{json.dumps(str(k))}: {recursive_json(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{closing}}}"
    if isinstance(obj, (list, tuple)) and len(obj):
        items = [f"{pad}{recursive_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{closing}]"
    return dump_json(obj, indent)  # a scalar or an empty container


TEXT = st.text(alphabet='ab "\\\n\u00e9', max_size=4)
# Python scalars of exactly str, int and float, which a list of them alone
# renders flat, and bools, None and numpy scalars, which it does not.
JSON_SCALARS = st.one_of(
    FLOATS, st.integers(-2**70, 2**70), TEXT, st.booleans(), st.none(),
    FLOATS.map(np.float64), st.integers(-2**62, 2**62).map(np.int64), st.booleans().map(np.bool_))
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(FLOATS) | st.lists(st.integers(-2**70, 2**70)) | st.lists(TEXT),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(NAMES, inner, max_size=3)
                   | st.lists(FLOATS, max_size=4).map(np.array)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(obj=JSON_VALUES, indent=st.sampled_from([0, 4]))
@example(obj=[0.5, float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 3, -2**70, 'a"b',
              True, np.float64(0.1), np.int64(3), np.bool_(False)], indent=0)
@example(obj={"flat": [float("nan"), float("inf"), float("-inf"), -0.0, 1, "x"],
              "bools": [True, False], "numpy": [np.float64(-0.0), np.int64(-1)],
              "nested": [[1.5], (2, "y"), {"z": [None]}], "empty": [[], {}]}, indent=2)
def test_flat_lists_render_as_the_recursive_writer(obj, indent):
    assert dump_json(obj, indent) == recursive_json(obj, indent)
