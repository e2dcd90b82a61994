import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from metricmass.serialize import csv_cell, write_csv

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308, -1e308])
NAMES = st.text(alphabet="abcxyz_0123456789", min_size=1, max_size=6)
CELLS = st.one_of(FLOATS, st.integers(-2**70, 2**70), st.none(), st.booleans(),
                  st.text(alphabet="abc xyz-+.", max_size=5))


def column(length: int):
    """A list of mixed cells, or a float, integer or boolean array."""
    return st.one_of(
        st.lists(CELLS, min_size=length, max_size=length),
        st.lists(FLOATS, min_size=length, max_size=length).map(np.array),
        st.lists(st.integers(-2**62, 2**62), min_size=length, max_size=length).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans(), min_size=length, max_size=length).map(
            lambda v: np.array(v, dtype=bool)),
    )


@st.composite
def tables(draw):
    length = draw(st.integers(0, 6))
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    return {name: draw(column(length)) for name in names}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=tables(), config=st.none() | st.just({"seed": 3, "r": 0.25}))
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
