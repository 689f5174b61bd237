import csv
import math

import numpy as np
import pytest

from advlab import io
from advlab.io import json_text, write_csv


@pytest.mark.parametrize(
    "value, parse",
    [
        (0.1, float),
        (1.0 / 3.0, float),
        (np.float64(2.0) / 3.0, float),
        (5e-324, float),
        (-0.0, float),
        (float("nan"), float),
        (float("inf"), float),
        (-float("inf"), float),
        (7, int),
        (np.int64(-3), int),
        ("clean", str),
        ("", str),
    ],
    ids=["tenth", "third", "np-float64", "subnormal", "neg-zero", "nan", "inf", "neg-inf",
         "int", "np-int64", "str", "empty-str"],
)
def test_cell_parses_back_exactly(tmp_path, value, parse):
    path = tmp_path / "cells.csv"
    write_csv(path, ("value",), [[value]])
    with open(path, newline="", encoding="utf-8") as f:
        header, (cell,) = csv.reader(f)
    assert header == ["value"]
    back = parse(cell)
    if isinstance(value, float) and math.isnan(value):
        assert math.isnan(back)
    elif isinstance(value, float):
        assert np.float64(back).tobytes() == np.float64(value).tobytes()  # -0.0 keeps its sign
    else:
        assert back == value


def test_rows_keep_their_order_and_width(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ("trial", "ratio"), enumerate(np.array([0.5, 1.25])))
    assert path.read_bytes() == b"trial,ratio\r\n0,0.5\r\n1,1.25\r\n"


def test_json_text_form():
    assert json_text({"a": [1, 2.5]}) == '{\n "a": [\n  1,\n  2.5\n ]\n}\n'



def _cell_by_cell(path, header, rows):
    """The reference bytes: csv.writer over each row's `.17g` cells."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([f"{v:.17g}" for v in row] for row in rows.tolist())
    return path.read_bytes()


EDGE_VALUES = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 2.5e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1.0, -7.0,
               1e16, 12345678901234567.0, 1e22, 1e-5]


def float_table(n_rows, width, seed=0):
    """Random floats over the whole exponent range, the edge values first."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n_rows * width) * 10.0 ** rng.integers(-300, 300, n_rows * width)
    k = min(len(EDGE_VALUES), values.size)
    values[:k] = EDGE_VALUES[:k]
    return values.reshape(n_rows, width)


@pytest.mark.parametrize("n_rows, width", [
    (0, 3), (1, 1), (len(EDGE_VALUES), 1), (6, 3),
    (io.CSV_BLOCK_ROWS, 3), (io.CSV_BLOCK_ROWS + 1, 1), (2 * io.CSV_BLOCK_ROWS + 7, 3),
], ids=["empty", "one-cell", "edge-column", "edge-rows", "one-block", "block-plus-one",
        "three-blocks"])
def test_float_table_matches_cell_by_cell_writer(tmp_path, n_rows, width):
    rows = float_table(n_rows, width)
    header = tuple(f"c{i}" for i in range(width))
    write_csv(tmp_path / "table.csv", header, rows)
    assert (tmp_path / "table.csv").read_bytes() == _cell_by_cell(tmp_path / "ref.csv", header, rows)


def test_float_table_of_integer_valued_floats(tmp_path):
    rows = np.array([[0.0, 1.0, -2.0], [1e15, 255.0, 3.0]])
    write_csv(tmp_path / "ints.csv", ("a", "b", "c"), rows)
    assert (tmp_path / "ints.csv").read_bytes() == b"a,b,c\r\n0,1,-2\r\n1000000000000000,255,3\r\n"


@pytest.mark.parametrize("view", ["strided", "transposed"])
def test_float_table_views_keep_row_order(tmp_path, view):
    rows = float_table(40, 6)
    table = rows[:, ::2] if view == "strided" else rows.T
    header = ("x",) * table.shape[1]
    write_csv(tmp_path / "t.csv", header, table)
    assert (tmp_path / "t.csv").read_bytes() == _cell_by_cell(tmp_path / "ref.csv", header, table)
