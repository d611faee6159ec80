"""Cost of the walk-sim output path: the trajectory writer and the d > 1
Weyl grid.

Times the row-by-row `csv.writer` trajectory writer (the reference kept in
`tests/reference_output.py`) against the chunked `cli._write_points_csv` at
N = 25k, 50k and 100k points in d = 1 and N = 20k in d = 2, checking that
both write the same bytes; then the per-frequency 2-D Weyl grid (one
`np.exp` per pair +-k, the previous `stats.character_means`, kept in
`tests/reference_output.py`) against `stats.character_means`, which builds
the grid from character powers, at K = 8 and N = 10k, 20k and 40k, checking
that every value is within (||k||_1 + log2 N) 2^-50 of the reference's and
recording the largest difference.  Fits the growth exponent in N of each
timing.
The points are seeded uniform samples of [0, 1)^d: both the writers and the
grid cost the same on any float64 coordinates.

    PYTHONPATH=src python3 bench/walk_output.py [--out BENCH_walk.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from toruswalk import cli, stats

from harness import environment, growth_exponent, median_seconds, write_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import reference_output  # noqa: E402

WRITER_SIZES = [(25_000, 1), (50_000, 1), (100_000, 1), (20_000, 2)]
GRID_SIZES = [10_000, 20_000, 40_000]
GRID_K = 8


def _points(count: int, dim: int) -> np.ndarray:
    return np.random.default_rng(count + dim).random((count, dim))


def measure_writer(count: int, dim: int, repeats: int, workdir: Path) -> dict:
    pts = _points(count, dim)
    ref_path, new_path = workdir / "reference.csv", workdir / "chunked.csv"
    reference_s, chunked_s = median_seconds(
        [lambda: reference_output.write_points_csv(ref_path, pts), lambda: cli._write_points_csv(new_path, pts)],
        repeats,
    )
    if ref_path.read_bytes() != new_path.read_bytes():
        raise AssertionError(f"N={count}, d={dim}: the writers' bytes differ")
    return {
        "N": count,
        "d": dim,
        "bytes": new_path.stat().st_size,
        "reference_s": reference_s,
        "chunked_s": chunked_s,
        "speedup": reference_s / chunked_s,
    }


def measure_grid(count: int, repeats: int) -> dict:
    sample = stats.OrbitSample(_points(count, 2), 0.0, 64)
    before = reference_output.character_means(sample, GRID_K)
    after = stats.character_means(sample, GRID_K)
    if list(before) != list(after):
        raise AssertionError(f"N={count}: the grids' keys differ")
    max_diff = 0.0
    for k, value in after.items():
        diff = abs(value - before[k])
        if diff > (sum(map(abs, k)) + np.log2(count)) * 2.0 ** -50:
            raise AssertionError(f"N={count}, k={k}: the grids differ by {diff:.3e}")
        max_diff = max(max_diff, diff)
    per_frequency_s, powers_s = median_seconds(
        [lambda: reference_output.character_means(sample, GRID_K), lambda: stats.character_means(sample, GRID_K)],
        repeats,
    )
    return {
        "N": count,
        "d": 2,
        "K": GRID_K,
        "frequencies": len(after),
        "per_frequency_s": per_frequency_s,
        "character_powers_s": powers_s,
        "speedup": per_frequency_s / powers_s,
        "max_abs_diff": max_diff,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_walk.json")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per size (median)")
    args = parser.parse_args()
    writer_rows, grid_rows = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for count, dim in WRITER_SIZES:
            writer_rows.append(measure_writer(count, dim, args.repeats, Path(tmp)))
            print(json.dumps(writer_rows[-1]))
    for count in GRID_SIZES:
        grid_rows.append(measure_grid(count, args.repeats))
        print(json.dumps(grid_rows[-1]))
    one_d = [r for r in writer_rows if r["d"] == 1]
    record = {
        "benchmark": "walk-sim output path: trajectory.csv writer and the 2-D Weyl grid",
        "writer": {
            "reference": "csv.writer, one row per point, format(v, '.17g') per cell",
            "chunked": f"cli._write_points_csv, {cli._POINTS_CHUNK_ROWS} rows per '%'",
            "rows": writer_rows,
            "reference_growth_exponent_n": growth_exponent(one_d, "N", "reference_s"),
            "chunked_growth_exponent_n": growth_exponent(one_d, "N", "chunked_s"),
        },
        "weyl_grid": {
            "per_frequency": "reference_output.character_means: one np.exp per pair +-k in [-K, K]^2",
            "character_powers": "stats.character_means: one np.exp per coordinate, one complex "
            "multiplication per frequency of the half grid",
            "rows": grid_rows,
            "per_frequency_growth_exponent_n": growth_exponent(grid_rows, "N", "per_frequency_s"),
            "character_powers_growth_exponent_n": growth_exponent(grid_rows, "N", "character_powers_s"),
        },
        "repeats": args.repeats,
        "environment": environment(),
    }
    write_json(args.out, record)
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
