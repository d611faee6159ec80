"""Cost of the fixed-point orbit engine and its inputs, layer by layer.

Times `Scalar.fixed_point` of the 1-D walk offset sqrt2 at the precisions of
the N = 50k and 100k walks (79,345 and 158,593 bits), the exact integer
products of one `walk_orbit_fixed` run at the sizes of the walk benchmark,
and the whole `walk_orbit_fixed` for

  * d = 1, D = [2, 3], alpha = [0, sqrt2], x0 = 1/7 at N = 25k, 50k, 100k;
  * the rotation alpha = [1/2, sqrt2/4] at N = 100k;
  * d = 2, D = [[3, 1], [1, 3]], [[4, 1], [1, 4]], alpha = [0, (sqrt2,
    sqrt3)] at N = 500, 3000, 6000 and 20k, next to the step-by-step seed
    loop (`tests/reference_orbits.py`) up to N = 6000; wherever that loop
    runs, the engine's points, `error_bound` and `precision_bits` must be
    identical to it.

The integer products of a run are its error budget (`fractal._error_budget`)
and the block maps the engine composes itself (`fractal._map_of` and
`fractal._compose`).  They are timed twice inside one real run: "shared" as
the library does it (a 1-D walk with multipliers >= 1 takes its block maps
from the budget tree, a rotation counts letters instead of building a tree),
and "unshared" with the budget swapped for the plain product tree, which
keeps nothing, so the engine composes every block map again.

Fits the growth exponent in N of the d = 1 and d = 2 timings.  Letters are
seeded uniform draws.  Each run is stored under its `--label` in the output
file, next to the runs already there, so one file can hold the timings of
two source trees:

    PYTHONPATH=src python3 bench/orbit_kernels.py [--label after] [--out BENCH_orbit.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from toruswalk import fractal
from toruswalk.exactcore import IntMatrix, IrrationalBasis, TorusPoint, parse_scalar

from harness import environment, growth_exponent, median_seconds, write_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import reference_orbits  # noqa: E402

WALK_1D_SIZES = [25_000, 50_000, 100_000]
ROTATION_SIZE = 100_000
WALK_2D_SIZES = [500, 3000, 6000, 20_000]
LOOP_MAX_N = 6000
BUDGET_SIZES = [("walk1d", 50_000), ("walk1d", 100_000), ("walk2d", 20_000), ("rotation", 100_000)]


def _family(name: str):
    """(endos, x0) of one walk family of the benchmark."""
    if name == "walk1d":
        basis = IrrationalBasis(("sqrt2",))
        mats = [IntMatrix.scalar(2), IntMatrix.scalar(3)]
        alphas = [["0"], ["1*sqrt2"]]
        x0 = ["1/7"]
    elif name == "rotation":
        basis = IrrationalBasis(("sqrt2",))
        mats = [IntMatrix.identity(1)] * 2
        alphas = [["1/2"], ["1/4*sqrt2"]]
        x0 = ["0"]
    else:
        basis = IrrationalBasis(("sqrt2", "sqrt3"))
        mats = [IntMatrix.from_rows([[3, 1], [1, 3]]), IntMatrix.from_rows([[4, 1], [1, 4]])]
        alphas = [["0", "0"], ["1*sqrt2", "1*sqrt3"]]
        x0 = ["0", "0"]
    endos = [
        fractal.AffineEndo(m, tuple(parse_scalar(a, basis) for a in alpha))
        for m, alpha in zip(mats, alphas)
    ]
    return endos, TorusPoint([parse_scalar(c, basis) for c in x0])


def _letters(count: int, alphabet: int) -> np.ndarray:
    return np.random.default_rng(count).integers(1, alphabet + 1, count)


def measure_fixed_point(count: int, repeats: int) -> dict:
    endos, _ = _family("walk1d")
    bits = fractal.precision_budget([e.linear for e in endos], count)
    offset = endos[1].offset[0]
    return {
        "N": count,
        "bits": bits,
        "scalar": str(offset),
        "fixed_point_s": median_seconds([lambda: offset.fixed_point(bits)], repeats)[0],
    }


def _unshared_budget(amps, letters, keep=None):
    """The error budget as one product tree that keeps no block map."""
    return fractal._scalar_tree(amps, [True] * len(amps), letters, 0, len(letters))


def _products_seconds(endos, x0, letters, shared: bool) -> float:
    """Seconds one walk_orbit_fixed run spends on its error budget and on the
    block maps its engine composes (outermost calls only)."""
    spent = 0.0
    depth = 0

    def timed(fn):
        def wrapper(*args):
            nonlocal spent, depth
            if depth:
                return fn(*args)
            depth += 1
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent += time.perf_counter() - start
                depth -= 1

        return wrapper

    budget = fractal._error_budget if shared else _unshared_budget
    patched = {"_error_budget": budget, "_map_of": fractal._map_of, "_compose": fractal._compose}
    saved = {name: getattr(fractal, name) for name in patched}
    for name, fn in patched.items():
        setattr(fractal, name, timed(fn))
    try:
        fractal.walk_orbit_fixed(endos, x0, letters)
    finally:
        for name, fn in saved.items():
            setattr(fractal, name, fn)
    return spent


def measure_budget(name: str, count: int, repeats: int) -> dict:
    endos, x0 = _family(name)
    letters = _letters(count, len(endos))
    row = {"family": name, "N": count}
    for label, shared in (("unshared_s", False), ("shared_s", True)):
        row[label] = statistics.median(
            _products_seconds(endos, x0, letters, shared) for _ in range(repeats)
        )
    return row


def _same_orbit(a: fractal.NumericOrbit, b: fractal.NumericOrbit) -> bool:
    return (
        a.precision_bits == b.precision_bits
        and a.error_bound == b.error_bound
        and a.points.tobytes() == b.points.tobytes()
    )


def measure_walk(name: str, count: int, repeats: int) -> dict:
    endos, x0 = _family(name)
    letters = _letters(count, len(endos))
    orbit = fractal.walk_orbit_fixed(endos, x0, letters)
    row = {
        "family": name,
        "d": endos[0].dimension,
        "N": count,
        "precision_bits": orbit.precision_bits,
        "engine_s": median_seconds([lambda: fractal.walk_orbit_fixed(endos, x0, letters)], repeats)[0],
    }
    if name == "walk2d" and count <= LOOP_MAX_N:
        loop = reference_orbits.walk_orbit_fixed(endos, x0, letters)
        if not _same_orbit(orbit, loop):
            raise AssertionError(f"{name} N={count}: engine and seed loop differ")
        row["seed_loop_s"] = median_seconds(
            [lambda: reference_orbits.walk_orbit_fixed(endos, x0, letters)], repeats
        )[0]
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_orbit.json")
    parser.add_argument("--label", default="current", help="key of this run in the output file")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per size (median)")
    args = parser.parse_args()
    fixed_rows = [measure_fixed_point(n, args.repeats) for n in (50_000, 100_000)]
    budget_rows = [measure_budget(name, n, args.repeats) for name, n in BUDGET_SIZES]
    walk_rows = [measure_walk("walk1d", n, args.repeats) for n in WALK_1D_SIZES]
    walk_rows.append(measure_walk("rotation", ROTATION_SIZE, args.repeats))
    walk_rows += [measure_walk("walk2d", n, args.repeats) for n in WALK_2D_SIZES]
    for row in fixed_rows + budget_rows + walk_rows:
        print(json.dumps(row))
    one_d = [r for r in walk_rows if r["family"] == "walk1d"]
    two_d = [r for r in walk_rows if r["family"] == "walk2d"]
    run = {
        "fixed_point": fixed_rows,
        "error_budget_tree": budget_rows,  # budget plus engine block maps
        "walk_orbit_fixed": walk_rows,
        "engine_growth_exponent_n_d1": growth_exponent(one_d, "N", "engine_s"),
        "engine_growth_exponent_n_d2": growth_exponent(two_d, "N", "engine_s"),
        "seed_loop_growth_exponent_n_d2": growth_exponent(
            [r for r in two_d if "seed_loop_s" in r], "N", "seed_loop_s"
        ),
        "repeats": args.repeats,
        "environment": environment(),
    }
    path = Path(args.out)
    record = json.loads(path.read_text()) if path.exists() else {}
    record["benchmark"] = "fixed-point orbit engine: fixed_point inputs, error-budget tree, walk_orbit_fixed"
    record.setdefault("runs", {})[args.label] = run
    write_json(path, record)
    print(
        f"growth exponent in N: d=1 {run['engine_growth_exponent_n_d1']:.2f}, "
        f"d=2 {run['engine_growth_exponent_n_d2']:.2f} -> {args.out}"
    )


if __name__ == "__main__":
    main()
