"""The artifact format shared by every deterministic CSV and JSON file.

A float CSV cell is written with 17 significant digits, which round-trips
any float64 exactly; every other cell is written with `str`. JSON
documents use a one-space indent and end with a newline. Keeping both
rules here is what makes the emitted bytes a stable contract.
"""

from __future__ import annotations

import csv
import json

import numpy as np

CSV_BLOCK_ROWS = 1024  # rows of a float table formatted by one `%` call


def write_csv(path, header, rows):
    """Write a header line and one line per row of cells.

    A 2-D float64 array is written a block of rows per format call, with
    the bytes `csv.writer` gives the same rows cell by cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
            line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"  # csv.writer's lineterminator
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start : start + CSV_BLOCK_ROWS]
                f.write(line * len(block) % tuple(block.ravel().tolist()))
        else:
            w.writerows([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
                        for row in rows)


def json_text(doc) -> str:
    return json.dumps(doc, indent=1) + "\n"


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json_text(doc))
