"""The row-by-row trajectory writer, kept as the reference for the CLI's
chunked one.

`csv.writer` (excel dialect: CRLF line ends, minimal quoting) fed one list
of strings per point, each coordinate formatted with `format(v, ".17g")`.
`cli._write_points_csv` must write the same bytes (see test_output.py);
nothing in src/ imports this module.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_points_csv(path: Path, points: np.ndarray) -> None:
    dim = points.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [f"x{i}" for i in range(dim)])
        writer.writerows(
            [i + 1] + [_fmt(v) for v in row] for i, row in enumerate(points)
        )
