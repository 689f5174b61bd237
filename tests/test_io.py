import csv
import math

import numpy as np
import pytest

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
