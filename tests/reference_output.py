"""Replaced routines of the walk-sim output path, kept as references.

`write_points_csv` is the row-by-row trajectory writer: `csv.writer` (excel
dialect: CRLF line ends, minimal quoting) fed one list of strings per point,
each coordinate formatted with `format(v, ".17g")`.  `cli._write_points_csv`
must write the same bytes (see test_output.py).

`character_means` is the Weyl grid before it was built from character
powers: the d = 1 power recurrence, whose values `stats.character_means`
must reproduce bit for bit, and one `np.exp` per pair +-k for d > 1 (see
test_stats.py).  Nothing in src/ imports this module.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from toruswalk.stats import OrbitSample, _frequency_grid


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


def character_means(sample: OrbitSample, k_max: int) -> dict[tuple[int, ...], complex]:
    sample._require_accuracy()
    pts = sample.points
    out: dict[tuple[int, ...], complex] = {}
    if sample.dimension == 1:
        z = np.exp(2j * np.pi * pts[:, 0])
        power = np.ones_like(z)
        for k in range(1, k_max + 1):
            power *= z
            mean = complex(np.mean(power))
            out[(k,)] = mean
            out[(-k,)] = mean.conjugate()
        return out
    for k in _frequency_grid(k_max, sample.dimension):
        negated = tuple(-c for c in k)
        if negated in out:
            out[k] = out[negated].conjugate()
            continue
        phase = pts @ np.asarray(k, dtype=float)
        out[k] = complex(np.mean(np.exp(2j * np.pi * phase)))
    return out
