"""Cost of the Fourier coefficients of the fourier benchmark's self-similar
measures: the libm per-coefficient path against the batched Taylor
evaluator, the whole dump, and the Haar check of a fresh convolution.

The measures are mu0 (base 4, atoms 0 and 1/2), nu (base 4, atoms 0 and 1/4)
and tri (base 3, atoms 0, 1/3 and 2/3 with weights 1/4, 1/2, 1/4), at the
tolerance 1e-12 of the benchmark configs.  Every timing starts from fresh
specs, so the one-time derivation of a measure's data is part of it.

  * "rows", for each measure and dump range R = 125, 250, 500 and 1000, every
    coefficient n = -R..R by
      - "libm": `libm_fourier_selfsimilar` of `tests/reference_fourier.py`,
        one coefficient per call with libm `cos`/`sin` and Python complex
        products;
      - "table": `spec.coefficients(tol).table(range(-R, R + 1))`, the
        batched path as the fourier dump runs it;
      - "one": `spectral.fourier_selfsimilar` once per coefficient, each
        call a batch of one.
  * "dump": the whole dump, `table(range(-R, R + 1))` for the three measures
    one after the other, at R = 250, 500 and 1000.
  * "haar": `is_haar_up_to(convolve(nu, mu0), 1000)` on fresh coefficient
    functions, which evaluates every index it checks.

The paths must agree at every coefficient: the same exact-zero flag, the
same certified error bits, and values within the sum of the two stated
errors; table and one bit for bit; the script stops otherwise.  The record
gives the time per coefficient, the exact-zero fraction and the growth
exponent of the total time in R of each path.

With `--before SRC`, the toruswalk package under SRC (an older tree's `src`)
is loaded next to this one and every timing alternates between the two
trees, so that a change of machine load reaches both alike; the older tree's
table and Haar verdict must agree with this one's as the paths do.  The
record then holds the runs "before" and "after"; without it, "after" only.
The libm path does not depend on the tree and is timed once per point.

    PYTHONPATH=src python3 bench/fourier_coefficients.py [--out BENCH_fourier.json]
    PYTHONPATH=src python3 bench/fourier_coefficients.py --before ../old/src
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from toruswalk import spectral

from harness import environment, growth_exponent, load_package, median_seconds, write_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import reference_fourier  # noqa: E402

TOL = 1e-12
RANGES = [125, 250, 500, 1000]
DUMP_RANGES = [250, 500, 1000]
HAAR_RANGE = 1000
MEASURES = {
    "mu0": (4, ["0", "1/2"], None),
    "nu": (4, ["0", "1/4"], None),
    "tri": (3, ["0", "1/3", "2/3"], ["1/4", "1/2", "1/4"]),
}
PATHS = ("table", "one")


def _spec(module, name: str):
    base, atoms, weights = MEASURES[name]
    return module.SelfSimilarSpec.create(
        base, [Fraction(a) for a in atoms], None if weights is None else [Fraction(w) for w in weights]
    )


def _agree(a, b) -> bool:
    return (
        a.exact_zero == b.exact_zero
        and a.error.hex() == b.error.hex()
        and abs(a.value - b.value) <= a.error + b.error
    )


def _bits(v) -> tuple:
    return v.value.real.hex(), v.value.imag.hex(), v.error.hex(), v.exact_zero


def _check(what: str, indices, table, *others) -> None:
    """Stop unless `table` agrees with each of `others` at every index."""
    for other in others:
        for n, a, b in zip(indices, table, other):
            if not _agree(a, b):
                raise SystemExit(f"{what}: coefficient {n} differs: {a} vs {b}")


def _medians(fns: dict, repeats: int) -> dict:
    """Median seconds of each function of fns, their runs alternating."""
    return dict(zip(fns, median_seconds(list(fns.values()), repeats)))


def measure_paths(trees: dict, name: str, dump_range: int, repeats: int) -> dict:
    indices = range(-dump_range, dump_range + 1)
    libm = [reference_fourier.libm_fourier_selfsimilar(_spec(spectral, name), n, TOL) for n in indices]
    after = _spec(spectral, name).coefficients(TOL).table(indices)
    for label, module in trees.items():
        table = _spec(module, name).coefficients(TOL).table(indices)
        spec = _spec(module, name)
        one = [module.fourier_selfsimilar(spec, n, TOL) for n in indices]
        _check(f"{label} {name}", indices, table, libm, after)
        if [_bits(v) for v in table] != [_bits(v) for v in one]:
            raise SystemExit(f"{label} {name}: a table differs from its batches of one")

    def run_libm():
        spec = _spec(spectral, name)
        for n in indices:
            reference_fourier.libm_fourier_selfsimilar(spec, n, TOL)

    def run_table(module):
        _spec(module, name).coefficients(TOL).table(indices)

    def run_one(module):
        spec = _spec(module, name)
        for n in indices:
            module.fourier_selfsimilar(spec, n, TOL)

    fns = {"libm": run_libm}
    for label, module in trees.items():
        fns[label, "table"] = lambda module=module: run_table(module)
        fns[label, "one"] = lambda module=module: run_one(module)
    seconds = _medians(fns, repeats)
    count = len(indices)
    rows = {}
    for label in trees:
        row = {
            "measure": name,
            "dump_range": dump_range,
            "coefficients": count,
            "exact_zero_frac": sum(v.exact_zero for v in libm) / count,
            "libm_s": seconds["libm"],
        }
        row.update({f"{path}_s": seconds[label, path] for path in PATHS})
        row.update({f"{path}_us_per_coeff": 1e6 * row[f"{path}_s"] / count for path in ("libm", *PATHS)})
        row["speedup_vs_libm"] = row["libm_s"] / row["table_s"]
        rows[label] = row
    return rows


def measure_dump(trees: dict, dump_range: int, repeats: int) -> dict:
    indices = range(-dump_range, dump_range + 1)

    def run(module):
        for name in MEASURES:
            _spec(module, name).coefficients(TOL).table(indices)

    seconds = _medians({label: lambda module=module: run(module) for label, module in trees.items()}, repeats)
    count = len(MEASURES) * len(indices)
    return {
        label: {
            "dump_range": dump_range,
            "coefficients": count,
            "dump_s": seconds[label],
            "us_per_coeff": 1e6 * seconds[label] / count,
        }
        for label in trees
    }


def measure_haar(trees: dict, repeats: int) -> dict:
    def run(module) -> bool:
        nu, mu0 = (_spec(module, name).coefficients(TOL) for name in ("nu", "mu0"))
        return module.is_haar_up_to(module.convolve(nu, mu0), HAAR_RANGE)

    for label, module in trees.items():
        if not run(module):
            raise SystemExit(f"{label}: convolve(nu, mu0) is not Haar up to {HAAR_RANGE}")
    seconds = _medians({label: lambda module=module: run(module) for label, module in trees.items()}, repeats)
    return {label: {"haar_range": HAAR_RANGE, "haar_s": seconds[label]} for label in trees}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_fourier.json")
    parser.add_argument("--repeats", type=int, default=9, help="timed runs per point (median)")
    parser.add_argument("--before", help="src directory of an older tree to time alternately")
    args = parser.parse_args()
    trees = {}
    if args.before:
        trees["before"] = importlib.import_module(f"{load_package(args.before).__name__}.spectral")
    trees["after"] = spectral
    rows = [measure_paths(trees, name, r, args.repeats) for name in MEASURES for r in RANGES]
    dumps = [measure_dump(trees, r, args.repeats) for r in DUMP_RANGES]
    haar = measure_haar(trees, args.repeats)
    runs = {}
    for label in trees:
        mine = [row[label] for row in rows]
        exponents = {
            name: {
                path: growth_exponent([r for r in mine if r["measure"] == name], "dump_range", f"{path}_s")
                for path in ("libm", *PATHS)
            }
            for name in MEASURES
        }
        runs[label] = {
            "rows": mine,
            "dump": [d[label] for d in dumps],
            "haar": haar[label],
            "growth_exponent_in_dump_range": exponents,
            "dump_growth_exponent": growth_exponent([d[label] for d in dumps], "dump_range", "dump_s"),
        }
        if args.before:
            runs[label]["alternated_with"] = [other for other in trees if other != label]
        for row in mine + runs[label]["dump"] + [haar[label]]:
            print(label, json.dumps(row))
    record = {
        "benchmark": "self-similar Fourier coefficients n = -R..R at tol 1e-12, per measure; the whole "
        "dump of the three measures; is_haar_up_to(convolve(nu, mu0), 1000) on fresh coefficients",
        "libm": "tests/reference_fourier.py libm_fourier_selfsimilar: one coefficient per call, "
        "libm cos/sin of the reduced offset, Python complex products; timed once per point, "
        "alternating with every tree",
        "table": "CoefficientFunction.table over n = -R..R on a fresh spec",
        "one": "spectral.fourier_selfsimilar once per coefficient: the batched path with batches of one",
        "outputs": "same exact-zero flags and certified error bits at every coefficient, values "
        "within the sum of the two stated errors; table and one bitwise identical in each tree; "
        "the same Haar verdict",
        "trees": {"after": "this tree", "before": "the tree given by --before, timed alternately"},
        "repeats": args.repeats,
        "runs": runs,
        "environment": environment(),
    }
    write_json(args.out, record)
    for label, run in runs.items():
        dump = ", ".join(f"R={d['dump_range']} {d['dump_s'] * 1e3:.2f} ms" for d in run["dump"])
        print(f"{label}: dump {dump}; haar {run['haar']['haar_s'] * 1e3:.2f} ms")
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
