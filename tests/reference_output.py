"""Replaced routines of the walk-sim output path, kept as references.

`write_points_csv` is the row-by-row trajectory writer: `csv.writer` (excel
dialect: CRLF line ends, minimal quoting) fed one list of strings per point,
each coordinate formatted with `format(v, ".17g")`.  `cli._write_points_csv`
must write the same bytes (see test_output.py).

`character_means` is the Weyl grid before it was built from character
powers: the d = 1 power recurrence, whose values `stats.character_means`
must reproduce bit for bit, and one `np.exp` per pair +-k for d > 1 (see
test_stats.py).

`running_discrepancy` is the checkpoint loop before each prefix was sorted
afresh: it merged the new points into the last prefix's sorted buffer by a
stable sort, and `stats.running_discrepancy` must give the same rows bit for
bit (see test_stats.py).  Nothing in src/ imports this module.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from toruswalk.stats import (
    DISCREPANCY_CHECKPOINTS,
    OrbitSample,
    _checked_coordinates,
    _frequency_grid,
    _sorted_star_discrepancy,
)


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


def running_discrepancy(sample: OrbitSample) -> list[tuple[int, float]]:
    xs = _checked_coordinates(sample)
    ordered = xs.copy()
    rows = []
    done = 0
    for i in range(1, DISCREPANCY_CHECKPOINTS + 1):
        m = max(1, (sample.size * i) // DISCREPANCY_CHECKPOINTS)
        ordered[done:m].sort()
        ordered[:m].sort(kind="stable")
        done = m
        rows.append((m, _sorted_star_discrepancy(ordered[:m])))
    return rows
