"""Cost of the fixed-point orbit engine and its inputs, layer by layer.

Times `Scalar.fixed_point` of the 1-D walk offset sqrt2 at the precisions of
the N = 50k and 100k walks (79,345 and 158,593 bits), the block maps of one
`walk_orbit_fixed` run at the sizes of the walk benchmark, and the whole
`walk_orbit_fixed` for

  * d = 1, D = [2, 3], alpha = [0, sqrt2], x0 = 1/7 at N = 25k, 50k, 100k;
  * the rotation alpha = [1/2, sqrt2/4] at N = 100k;
  * d = 2, D = [[3, 1], [1, 3]], [[4, 1], [1, 4]], alpha = [0, (sqrt2,
    sqrt3)] at N = 500, 3000, 6000 and 20k, next to the step-by-step seed
    loop (`tests/reference_orbits.py`) up to N = 6000; wherever that loop
    runs, the engine's points, `error_bound` and `precision_bits` must be
    identical to it.

The block maps of a run are its error budget (`fractal._error_budget`) and
the maps its engine reads (`fractal._map_of`), all built by `fractal._tree`;
the outermost calls of these are timed inside one real run.  A tree whose
engine still composes maps while it solves does so in `fractal._compose`,
which is timed too where it exists, so an older tree is measured alike.  The
same rows give the heap peak of one run (tracemalloc), and every
`walk_orbit_fixed` row the quartiles of its timed runs next to the median.

The digit rows time the two layers of one normality run, the
sqrt2-dilated middle-thirds Cantor set in base 3 (D = 3, r = [1, 1],
t = [0, 2/3 sqrt2]), at N = 25k, 50k, 100k and 200k: `code_prefix_fixed`
of the word that `stats.sample_digits` draws for N digits (seeded by N, at
its precision), and `digits_from_fixed` of that coded value with the
coding error; the coded value (an older tree's error may leave out the
tail), digits, points, `error_bound` and `precision_bits` of both trees
must be identical.  Each digit row also gives the heap peak of
one `digits_from_fixed` run (tracemalloc).

Fits the growth exponent in N of the d = 1 and d = 2 timings and of both
digit layers.  Letters are seeded draws.  Each run is stored under its
`--label` in the output file, next to the runs already there.  With
`--before SRC`, the toruswalk package under SRC (an older tree's `src`) is
loaded next to this one and every timing alternates between the two, so
that a change of machine load reaches both alike; its run is stored under
`--before-label`:

    PYTHONPATH=src python3 bench/orbit_kernels.py [--label after] [--out BENCH_orbit.json]
    PYTHONPATH=src python3 bench/orbit_kernels.py --before ../old/src --label after
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import toruswalk
from toruswalk import stats

from harness import (
    alternate_seconds,
    environment,
    growth_exponent,
    load_package,
    median_seconds,
    write_json,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import reference_orbits  # noqa: E402

WALK_1D_SIZES = [25_000, 50_000, 100_000]
ROTATION_SIZE = 100_000
WALK_2D_SIZES = [500, 3000, 6000, 20_000]
LOOP_MAX_N = 6000
DIGIT_SIZES = [25_000, 50_000, 100_000, 200_000]
MAP_SIZES = [("walk1d", 50_000), ("walk1d", 100_000), ("walk2d", 20_000), ("rotation", 100_000)]
# what builds block maps in a run; names a tree lacks are skipped
MAP_BUILDERS = ("_error_budget", "_map_of", "_tree", "_compose")


def _modules(package):
    """(fractal, exactcore) of a toruswalk package."""
    name = package.__name__
    return importlib.import_module(f"{name}.fractal"), importlib.import_module(f"{name}.exactcore")


def _family(tree, name: str):
    """(endos, x0) of one walk family of the benchmark, built by `tree`."""
    fractal, exact = tree
    if name == "walk1d":
        basis = exact.IrrationalBasis(("sqrt2",))
        mats = [exact.IntMatrix.scalar(2), exact.IntMatrix.scalar(3)]
        alphas = [["0"], ["1*sqrt2"]]
        x0 = ["1/7"]
    elif name == "rotation":
        basis = exact.IrrationalBasis(("sqrt2",))
        mats = [exact.IntMatrix.identity(1)] * 2
        alphas = [["1/2"], ["1/4*sqrt2"]]
        x0 = ["0"]
    else:
        basis = exact.IrrationalBasis(("sqrt2", "sqrt3"))
        mats = [
            exact.IntMatrix.from_rows([[3, 1], [1, 3]]),
            exact.IntMatrix.from_rows([[4, 1], [1, 4]]),
        ]
        alphas = [["0", "0"], ["1*sqrt2", "1*sqrt3"]]
        x0 = ["0", "0"]
    endos = [
        fractal.AffineEndo(m, tuple(exact.parse_scalar(a, basis) for a in alpha))
        for m, alpha in zip(mats, alphas)
    ]
    return endos, exact.TorusPoint([exact.parse_scalar(c, basis) for c in x0])


def _letters(count: int, alphabet: int) -> np.ndarray:
    return np.random.default_rng(count).integers(1, alphabet + 1, count)


def _each(trees: dict, row: dict, fields) -> dict:
    """One copy of `row` per tree label, completed by fields(label, tree)."""
    return {label: {**row, **fields(label, tree)} for label, tree in trees.items()}


def measure_fixed_point(trees: dict, count: int, repeats: int) -> dict:
    offsets = {}
    for label, tree in trees.items():
        endos, _ = _family(tree, "walk1d")
        bits = tree[0].precision_budget([e.linear for e in endos], count)
        offsets[label] = endos[1].offset[0], bits
    seconds = alternate_seconds(
        [lambda s=s, b=b: s.fixed_point(b) for s, b in offsets.values()], repeats
    )
    return {
        label: {
            "N": count,
            "bits": bits,
            "scalar": str(offset),
            "fixed_point_s": statistics.median(spent),
        }
        for (label, (offset, bits)), spent in zip(offsets.items(), seconds)
    }


def _maps_seconds(fractal, endos, x0, letters) -> float:
    """Seconds one walk_orbit_fixed run spends building its error budget and
    block maps (outermost calls only)."""
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

    saved = {name: getattr(fractal, name) for name in MAP_BUILDERS if hasattr(fractal, name)}
    for name, fn in saved.items():
        setattr(fractal, name, timed(fn))
    try:
        fractal.walk_orbit_fixed(endos, x0, letters)
    finally:
        for name, fn in saved.items():
            setattr(fractal, name, fn)
    return spent


def _heap_peak_mb(fn) -> float:
    """Peak of the Python heap during one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure_maps(trees: dict, name: str, count: int, repeats: int) -> dict:
    walks = {label: (tree[0], *_family(tree, name)) for label, tree in trees.items()}
    letters = _letters(count, 2)  # every family has two maps
    spent = {label: [] for label in trees}
    for _ in range(repeats):
        for label, walk in walks.items():
            spent[label].append(_maps_seconds(*walk, letters))
    return _each(
        trees,
        {"family": name, "N": count},
        lambda label, _: {
            "maps_s": statistics.median(spent[label]),
            "heap_peak_mb": _heap_peak_mb(lambda f=walks[label]: f[0].walk_orbit_fixed(*f[1:], letters)),
        },
    )


def _same_orbit(a, b) -> bool:
    return (
        a.precision_bits == b.precision_bits
        and a.error_bound == b.error_bound
        and a.points.tobytes() == b.points.tobytes()
    )


def measure_walk(trees: dict, name: str, count: int, repeats: int) -> dict:
    walks = {label: (tree[0], *_family(tree, name)) for label, tree in trees.items()}
    letters = _letters(count, 2)  # every family has two maps
    orbits = {label: f.walk_orbit_fixed(endos, x0, letters) for label, (f, endos, x0) in walks.items()}
    runs = [lambda w=w: w[0].walk_orbit_fixed(w[1], w[2], letters) for w in walks.values()]
    seconds = dict(zip(walks, alternate_seconds(runs, repeats)))
    loop_s = None
    if name == "walk2d" and count <= LOOP_MAX_N:
        endos, x0 = _family(_modules(toruswalk), name)
        loop = reference_orbits.walk_orbit_fixed(endos, x0, letters)
        for label, orbit in orbits.items():
            if not _same_orbit(orbit, loop):
                raise AssertionError(f"{label} {name} N={count}: engine and seed loop differ")
        loop_s = median_seconds([lambda: reference_orbits.walk_orbit_fixed(endos, x0, letters)], repeats)[0]

    def fields(label, tree):
        q1, median, q3 = statistics.quantiles(seconds[label], n=4)
        row = {
            "d": walks[label][1][0].dimension,
            "N": count,
            "precision_bits": orbits[label].precision_bits,
            "engine_s": median,
            "engine_quartiles_s": [q1, q3],
        }
        if loop_s is not None:
            row["seed_loop_s"] = loop_s
        return row

    return _each(trees, {"family": name}, fields)


def _normality(tree):
    """The normality IFS of the digit rows, built by `tree`."""
    fractal, exact = tree
    basis = exact.IrrationalBasis(("sqrt2",))
    t = [[exact.parse_scalar(c, basis)] for c in ("0", "2/3*sqrt2")]
    return fractal.AffineIFS.create(3, [1, 1], t)


def measure_digits(trees: dict, count: int, repeats: int) -> dict:
    # the word and precision of one normality run of N digits, from this tree
    here = _modules(toruswalk)
    ifs = _normality(here)
    _, sample, word_len = stats.sample_digits(ifs, np.random.default_rng(count), count)
    bits = sample.precision_bits
    letters = here[0].walk_letter_stream(ifs.probabilities, np.random.default_rng(count), word_len)
    fixed, err = here[0].code_prefix_fixed(ifs, letters, bits)
    runs = {label: (tree[0], _normality(tree)) for label, tree in trees.items()}
    digits, orbit = here[0].digits_from_fixed(fixed, err, bits, 3, count)
    for label, (fractal, tree_ifs) in runs.items():
        if fractal.code_prefix_fixed(tree_ifs, letters, bits)[0] != fixed:
            raise AssertionError(f"{label} N={count}: coded values differ")
        other_digits, other = fractal.digits_from_fixed(fixed, err, bits, 3, count)
        if other_digits != digits or not _same_orbit(other, orbit):
            raise AssertionError(f"{label} N={count}: digit runs differ")
    code = alternate_seconds(
        [lambda r=r: r[0].code_prefix_fixed(r[1], letters, bits) for r in runs.values()], repeats
    )
    digit_runs = [lambda r=r: r[0].digits_from_fixed(fixed, err, bits, 3, count) for r in runs.values()]
    spent = alternate_seconds(digit_runs, repeats)
    columns = {label: (c, d, fn) for label, c, d, fn in zip(runs, code, spent, digit_runs)}

    def fields(label, _):
        code_s, digits_s, run = columns[label]
        q1, median, q3 = statistics.quantiles(digits_s, n=4)
        return {
            "code_prefix_s": statistics.median(code_s),
            "digits_s": median,
            "digits_quartiles_s": [q1, q3],
            "heap_peak_mb": _heap_peak_mb(run),
        }

    return _each(trees, {"N": count, "word_length": int(word_len), "precision_bits": bits}, fields)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_orbit.json")
    parser.add_argument("--label", default="current", help="key of this run in the output file")
    parser.add_argument("--before", help="src directory of an older tree to time alternately")
    parser.add_argument("--before-label", default="before", help="key of the older tree's run")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per size (median)")
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 (quartiles)")
    if args.before and args.before_label == args.label:
        parser.error("--before-label must differ from --label")
    trees = {}
    if args.before:
        trees[args.before_label] = _modules(load_package(args.before))
    trees[args.label] = _modules(toruswalk)
    measures = {
        "fixed_point": [measure_fixed_point(trees, n, args.repeats) for n in (50_000, 100_000)],
        # error budget plus the engine's block maps
        "block_maps": [measure_maps(trees, name, n, args.repeats) for name, n in MAP_SIZES],
        "walk_orbit_fixed": [
            measure_walk(trees, name, n, args.repeats)
            for name, sizes in (
                ("walk1d", WALK_1D_SIZES),
                ("rotation", [ROTATION_SIZE]),
                ("walk2d", WALK_2D_SIZES),
            )
            for n in sizes
        ],
        "digits": [measure_digits(trees, n, args.repeats) for n in DIGIT_SIZES],
    }
    path = Path(args.out)
    record = json.loads(path.read_text()) if path.exists() else {}
    record["benchmark"] = (
        "fixed-point orbit engine: fixed_point inputs, block maps, walk_orbit_fixed, "
        "code_prefix_fixed and digits_from_fixed"
    )
    for label in trees:
        run = {key: [by_label[label] for by_label in rows] for key, rows in measures.items()}
        walks = run["walk_orbit_fixed"]
        one_d = [r for r in walks if r["family"] == "walk1d"]
        two_d = [r for r in walks if r["family"] == "walk2d"]
        run.update(
            engine_growth_exponent_n_d1=growth_exponent(one_d, "N", "engine_s"),
            engine_growth_exponent_n_d2=growth_exponent(two_d, "N", "engine_s"),
            seed_loop_growth_exponent_n_d2=growth_exponent(
                [r for r in two_d if "seed_loop_s" in r], "N", "seed_loop_s"
            ),
            code_prefix_growth_exponent_n=growth_exponent(run["digits"], "N", "code_prefix_s"),
            digits_growth_exponent_n=growth_exponent(run["digits"], "N", "digits_s"),
            repeats=args.repeats,
            environment=environment(),
        )
        if args.before:
            run["alternated_with"] = [other for other in trees if other != label]
        record.setdefault("runs", {})[label] = run
        for key in measures:
            for row in run[key]:
                print(label, json.dumps(row))
        print(
            f"{label}: growth exponent in N: d=1 {run['engine_growth_exponent_n_d1']:.2f}, "
            f"d=2 {run['engine_growth_exponent_n_d2']:.2f}, code_prefix_fixed "
            f"{run['code_prefix_growth_exponent_n']:.2f}, digits_from_fixed {run['digits_growth_exponent_n']:.2f}"
        )
    write_json(path, record)
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
