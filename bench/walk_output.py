"""Cost of the walk-sim output path: the trajectory writer and the d > 1
Weyl grid.

Times the row-by-row `csv.writer` trajectory writer (the reference kept in
`tests/reference_output.py`) against `cli._write_points_csv` at N = 25k, 50k
and 100k points in d = 1 and N = 20k in d = 2, checking that both write the
same bytes; with `--before SRC`, the `cli._write_points_csv` of the toruswalk
package under SRC (an older tree's `src`) is timed alternately with them and
must write the same bytes too.  The points are seeded uniform samples of
[0, 1)^d, which lie on the 2^-53 grid as engine points do and are written
from their digits; the rows marked `off_grid` move that share of the
coordinates between grid points, where the writer formats each one by
itself.  Then times the per-frequency 2-D Weyl grid (one `np.exp` per pair
+-k, the previous `stats.character_means`, kept in
`tests/reference_output.py`) against `stats.character_means`, which builds
the grid from character powers, at K = 8 and N = 10k, 20k and 40k, checking
that every value is within (||k||_1 + log2 N) 2^-50 of the reference's and
recording the largest difference; the grid costs the same on any float64
coordinates.  Fits the growth exponent in N of each timing on the grid.

    PYTHONPATH=src python3 bench/walk_output.py [--out BENCH_walk.json]
    PYTHONPATH=src python3 bench/walk_output.py --before ../old/src
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from toruswalk import cli, stats

from harness import environment, growth_exponent, load_package, median_seconds, write_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import reference_output  # noqa: E402

# (N, d, share of coordinates off the 2^-53 grid)
WRITER_SIZES = [(25_000, 1, 0.0), (50_000, 1, 0.0), (100_000, 1, 0.0), (20_000, 2, 0.0), (50_000, 1, 0.01)]
GRID_SIZES = [10_000, 20_000, 40_000]
GRID_K = 8


def _points(count: int, dim: int, off_grid: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(count + dim)
    pts = rng.random((count, dim))
    moved = rng.random((count, dim)) < off_grid
    # halfway between two grid points below 1/2: exact in float64, off the grid
    pts[moved] = (rng.integers(0, 2**52, size=int(moved.sum())) + 0.5) * 2.0**-53
    return pts


def measure_writer(count: int, dim: int, off_grid: float, writers: dict, repeats: int, workdir: Path) -> dict:
    """Median seconds of each writer (name -> function) on the same points;
    all must write the bytes of the reference."""
    pts = _points(count, dim, off_grid)
    paths = {name: workdir / f"{name}.csv" for name in writers}
    seconds = median_seconds(
        [lambda write=write, path=paths[name]: write(path, pts) for name, write in writers.items()], repeats
    )
    expected = paths["reference"].read_bytes()
    for name, path in paths.items():
        if path.read_bytes() != expected:
            raise AssertionError(f"N={count}, d={dim}: {name} and the reference write different bytes")
    row = {"N": count, "d": dim, "off_grid": off_grid, "bytes": len(expected)}
    row.update({f"{name}_s": spent for name, spent in zip(writers, seconds)})
    for name in writers:
        if name != "writer":
            row[f"speedup_vs_{name}"] = row[f"{name}_s"] / row["writer_s"]
    return row


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
    parser.add_argument("--before", help="src directory of an older tree whose writer is timed alternately")
    args = parser.parse_args()
    writers = {"reference": reference_output.write_points_csv, "writer": cli._write_points_csv}
    if args.before:
        before = importlib.import_module(f"{load_package(args.before).__name__}.cli")
        writers["before"] = before._write_points_csv
    writer_rows, grid_rows = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for count, dim, off_grid in WRITER_SIZES:
            writer_rows.append(measure_writer(count, dim, off_grid, writers, args.repeats, Path(tmp)))
            print(json.dumps(writer_rows[-1]))
    for count in GRID_SIZES:
        grid_rows.append(measure_grid(count, args.repeats))
        print(json.dumps(grid_rows[-1]))
    one_d = [r for r in writer_rows if r["d"] == 1 and not r["off_grid"]]
    writer = {
        "reference": "csv.writer, one row per point, format(v, '.17g') per cell",
        "writer": f"cli._write_points_csv: fractal.points_csv, {cli._POINTS_CHUNK_ROWS} rows per call, "
        "grid values from their digits",
    }
    if args.before:
        writer["before"] = "cli._write_points_csv of the older tree (--before), timed alternately"
    writer["rows"] = writer_rows
    for name in writers:
        writer[f"{name}_growth_exponent_n"] = growth_exponent(one_d, "N", f"{name}_s")
    record = {
        "benchmark": "walk-sim output path: trajectory.csv writer and the 2-D Weyl grid",
        "writer": writer,
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
