"""The CSV codec: what csv_text writes, read_csv reads back, and every
fault read_csv finds names its line and column."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from topostab.errors import DataError
from topostab.tables import csv_text, read_csv


def test_an_id_with_a_comma_and_a_quote_round_trips():
    sample_id = 'a,"b"'
    text = csv_text(["id", "v"], [(sample_id, 0.5)])
    header, (ids, values) = read_csv(text, ("id", "v"), (1,))
    assert header == ["id", "v"]
    assert ids == [sample_id]
    assert values.tolist() == [0.5]


@pytest.mark.parametrize("value, cell", [
    (float("inf"), "inf"), (np.float64(np.inf), "inf"), (-0.0, "-0.0"),
    (0.1 + 0.2, "0.30000000000000004"), (np.float32(0.5), "0.5"), (3, "3"),
])
def test_floats_are_written_as_their_repr(value, cell):
    assert csv_text(["id", "v"], [("a", value)]) == f"id,v\na,{cell}\n"


EDGE_FLOATS = [math.inf, -math.inf, 0.0, -0.0, 1e16, 1e-16, 5e-324,
               1.7976931348623157e308, 0.1, 1 / 3, 123456789.125, 2.0 ** 53,
               -2.5e-7, 1e22, 9007199254740993.0]


@pytest.mark.parametrize("kind", [float, np.float64])
def test_edge_floats_are_written_as_the_repr_of_the_float(kind):
    rows = [("a", kind(v)) for v in EDGE_FLOATS]
    want = "".join(f"a,{v!r}\n" for v in EDGE_FLOATS)
    assert csv_text(["id", "v"], rows) == "id,v\n" + want


def test_blank_lines_are_skipped_but_counted():
    text = "id,v\n\na,1.5\n\n\nb,nan\n"
    with pytest.raises(DataError, match="^line 6, column 'v': "):
        read_csv(text, numbers=(1,))
    _, (ids, values) = read_csv(text.replace("nan", "2"), numbers=(1,))
    assert ids == ["a", "b"] and values.tolist() == [1.5, 2.0]


def test_header_cells_are_stripped_and_extra_columns_kept():
    header, columns = read_csv(" x , y ,z,w\n1,2,3,q\n", ("x", "y", "z"),
                               (0, 1, 2))
    assert header == ["x", "y", "z", "w"]
    assert [list(c) for c in columns] == [[1.0], [2.0], [3.0], ["q"]]


def test_a_header_only_table_has_empty_columns():
    _, (ids, values) = read_csv("id,v\n", numbers=(1,))
    assert ids == [] and values.shape == (0,)


@pytest.mark.parametrize("text, names, numbers, error, message", [
    ("id,score,lab\na,1,x\n", ("id", "score", "label"), (), DataError,
     "line 1, column 'lab': expected 'label'"),
    ("id,score\na,1\n", ("id", "score", "label"), (), DataError,
     "line 1, column 3: expected 'label'"),
    ("", ("x",), (), DataError, "line 1, column 1: expected 'x'"),
    ("id\na\n", (), (1,), DataError,
     "line 1, column 2: missing from the header"),
    ("id,v\na,1\nb\n", (), (), DataError,
     "line 3, column 'v': 1 cells, but the header has 2"),
    ("id,v\na,1,2\n", (), (), DataError,
     "line 2, column 3: 3 cells, but the header has 2"),
    ("id,v\na,1\nb,\n", (), (1,), DataError,
     "line 3, column 'v': '' is non-numeric or non-finite"),
    ("id,v\na,x\n", (), (1,), DataError,
     "line 2, column 'v': 'x' is non-numeric or non-finite"),
    ("id,v\na,1\nb,nan\n", (), (1,), DataError,
     "line 3, column 'v': 'nan' is non-numeric or non-finite"),
    ("id,u,v\na,1,2\nb,-Infinity,3\n", (), slice(1, None), DataError,
     "line 3, column 'u': '-Infinity' is non-numeric or non-finite"),
])
def test_a_fault_names_its_line_and_column(text, names, numbers, error,
                                           message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read_csv(text, names, numbers)
