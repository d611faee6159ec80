"""The chunked trajectory writer against the row-by-row reference, and the
trajectory.csv of whole runs read back against the orbit points."""

import json

import numpy as np
import pytest

from reference_output import write_points_csv
from toruswalk import cli, fractal

CHUNK = cli._POINTS_CHUNK_ROWS
GRID = 2.0**-53
# m = ceil(2^53 / 10^k) gives the least grid value m 2^-53 >= 10^-k, and
# m - 1 the largest below it, for k = 1..5: 10^-4 is the last decade written
# from digits, smaller values take exponent notation
DECADE_EDGES = [(-(-(2**53) // 10**k) + j) * GRID for k in range(1, 6) for j in (-1, 0, 1)]
EDGE_VALUES = [0.0, 5e-324, float(np.nextafter(1.0, 0.0)), 0.1, 1 / 3] + DECADE_EDGES + [
    1 - 2.0**-18,  # m = 2^35 odd: the 18th digit is an exact 5, rounded up to even
    26217 * 2.0**-18,  # another exact tie, rounded down to even
    0.5,  # m = j 2^33: 17 digits that end in zeros, across all groups
    0.0625,
    0.001953125,
    0.000244140625,
    12345 * 2.0**-20,
    3 * GRID,  # on the grid, below 10^-4
]


def _points(count: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(count * 10 + dim)
    pts = rng.random((count, dim))
    # the first rows hold every edge value in every column (when N >= len(EDGE_VALUES))
    for i in range(min(count, len(EDGE_VALUES))):
        for j in range(dim):
            pts[i, j] = EDGE_VALUES[(i + j) % len(EDGE_VALUES)]
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_chunked_writer_matches_reference(tmp_path, count, dim):
    pts = _points(count, dim)
    cli._write_points_csv(tmp_path / "new.csv", pts)
    write_points_csv(tmp_path / "ref.csv", pts)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\r\n") == count + 1


def test_grid_values_print_as_format():
    # grid values in every decade down to 2^-53, each checked against format
    rng = np.random.default_rng(2024)
    m = rng.integers(0, 2**53, size=100_000) >> rng.integers(0, 54, size=100_000)
    values = m * GRID
    lines = fractal.points_csv(values[:, None], 1).decode().split("\r\n")
    assert lines[-1] == ""
    assert [line.split(",")[1] for line in lines[:-1]] == [format(v, ".17g") for v in values.tolist()]


def _run_and_capture(tmp_path, monkeypatch, cfg: dict) -> tuple[np.ndarray, list[str]]:
    """Run `cfg` through main(["run", ...]); return the orbit points the run
    computed and the lines of its trajectory.csv.  The points must lie on the
    2^-53 grid, where fractal.points_csv formats them from their digits."""
    orbits = []
    engine = fractal.walk_orbit_fixed

    def capture(*args, **kwargs):
        orbits.append(engine(*args, **kwargs))
        return orbits[-1]

    monkeypatch.setattr(fractal, "walk_orbit_fixed", capture)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "-o", str(out)]) == 0
    assert len(orbits) == 1
    scaled = orbits[0].points * 2**53
    assert np.array_equal(scaled, np.floor(scaled))
    text = (out / "trajectory.csv").read_bytes().decode()
    assert text.endswith("\r\n")
    return orbits[0].points, text.split("\r\n")[:-1]


@pytest.mark.parametrize(
    "cfg",
    [
        {
            "kind": "walk-sim",
            "irrationals": ["sqrt2", "sqrt3"],
            "D": [[[3, 1], [1, 3]], [[4, 1], [1, 4]]],
            "alpha": [["0", "0"], ["1*sqrt2", "1*sqrt3"]],
            "N": CHUNK + 7,
            "K": 2,
            "seed": 5,
        },
        {
            "kind": "rotation-case",
            "irrationals": ["sqrt2"],
            "alpha": ["1/2", "1/4*sqrt2"],
            "N": 2 * CHUNK + 3,
            "K": 2,
            "seed": 6,
        },
    ],
    ids=["walk-sim-2d", "rotation-case"],
)
def test_trajectory_reads_back_exactly(tmp_path, monkeypatch, cfg):
    points, lines = _run_and_capture(tmp_path, monkeypatch, cfg)
    count, dim = points.shape
    assert count == cfg["N"]
    assert lines[0] == ",".join(["n"] + [f"x{j}" for j in range(dim)])
    assert len(lines) == count + 1
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i + 1
        assert [float(c) for c in cells[1:]] == points[i].tolist()
