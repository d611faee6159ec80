"""Cost per Fourier coefficient of the self-similar measures of the fourier
benchmark: the libm per-coefficient path against the batched Taylor
evaluator.

For each measure (mu0: base 4, atoms 0 and 1/2; nu: base 4, atoms 0 and
1/4; tri: base 3, atoms 0, 1/3 and 2/3 with weights 1/4, 1/2, 1/4), at the
tolerance 1e-12 of the benchmark configs and dump ranges R = 125, 250, 500
and 1000, times the evaluation of every coefficient n = -R..R on a fresh
spec, so the one-time derivation of the measure's data is part of the time:

  * "before": `libm_fourier_selfsimilar` of `tests/reference_fourier.py`, one
    coefficient per call with libm `cos`/`sin` and Python complex products;
  * "after": `spec.coefficients(tol).table(range(-R, R + 1))`, one batched
    numpy pass per chunk of frequencies, as the fourier dump runs it;
  * "one": `spectral.fourier_selfsimilar` once per coefficient, each call a
    batch of one.

The paths must agree at every coefficient: the same exact-zero flag, the
same certified error bits, and values within the sum of the two stated
errors; the script stops otherwise.  It records the time per coefficient,
the exact-zero fraction and the growth exponent of the total time in R for
each path.

    PYTHONPATH=src python3 bench/fourier_coefficients.py [--out BENCH_fourier.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from toruswalk import spectral

from harness import environment, growth_exponent, median_seconds, write_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import reference_fourier  # noqa: E402

TOL = 1e-12
RANGES = [125, 250, 500, 1000]
MEASURES = {
    "mu0": (4, ["0", "1/2"], None),
    "nu": (4, ["0", "1/4"], None),
    "tri": (3, ["0", "1/3", "2/3"], ["1/4", "1/2", "1/4"]),
}
PATHS = ("before", "after", "one")


def _spec(name: str) -> spectral.SelfSimilarSpec:
    base, atoms, weights = MEASURES[name]
    return spectral.SelfSimilarSpec.create(
        base, [Fraction(a) for a in atoms], None if weights is None else [Fraction(w) for w in weights]
    )


def _agree(a: spectral.FourierValue, b: spectral.FourierValue) -> bool:
    return (
        a.exact_zero == b.exact_zero
        and a.error.hex() == b.error.hex()
        and abs(a.value - b.value) <= a.error + b.error
    )


def _bits(v: spectral.FourierValue) -> tuple:
    return v.value.real.hex(), v.value.imag.hex(), v.error.hex(), v.exact_zero


def measure(name: str, dump_range: int, repeats: int) -> dict:
    indices = range(-dump_range, dump_range + 1)
    after = _spec(name).coefficients(TOL).table(indices)
    before = [reference_fourier.libm_fourier_selfsimilar(_spec(name), n, TOL) for n in indices]
    spec = _spec(name)
    one = [spectral.fourier_selfsimilar(spec, n, TOL) for n in indices]
    for n, a, b, c in zip(indices, after, before, one):
        if not _agree(a, b) or _bits(a) != _bits(c):
            raise SystemExit(f"{name}: coefficient {n} differs: {a} vs {b} vs {c}")

    def run_before():
        spec = _spec(name)
        for n in indices:
            reference_fourier.libm_fourier_selfsimilar(spec, n, TOL)

    def run_after():
        _spec(name).coefficients(TOL).table(indices)

    def run_one():
        spec = _spec(name)
        for n in indices:
            spectral.fourier_selfsimilar(spec, n, TOL)

    count = len(indices)
    seconds = dict(zip(PATHS, median_seconds([run_before, run_after, run_one], repeats)))
    row = {
        "measure": name,
        "dump_range": dump_range,
        "coefficients": count,
        "exact_zero_frac": sum(v.exact_zero for v in after) / count,
    }
    row.update({f"{path}_s": seconds[path] for path in PATHS})
    row.update({f"{path}_us_per_coeff": 1e6 * seconds[path] / count for path in PATHS})
    row["speedup"] = seconds["before"] / seconds["after"]
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_fourier.json")
    parser.add_argument("--repeats", type=int, default=9, help="timed runs per point (median)")
    args = parser.parse_args()
    rows = []
    for name in MEASURES:
        for dump_range in RANGES:
            rows.append(measure(name, dump_range, args.repeats))
            print(json.dumps(rows[-1]))
    exponents = {}
    for name in MEASURES:
        mine = [r for r in rows if r["measure"] == name]
        exponents[name] = {path: growth_exponent(mine, "dump_range", f"{path}_s") for path in PATHS}
    record = {
        "benchmark": "self-similar Fourier coefficients n = -R..R at tol 1e-12, per measure",
        "before": "tests/reference_fourier.py libm_fourier_selfsimilar: one coefficient per call, "
        "libm cos/sin of the reduced offset, Python complex products",
        "after": "spectral: CoefficientFunction.table over n = -R..R, Taylor cos/sin of a "
        "double-double offset, one numpy pass per chunk of frequencies and all their scales",
        "one": "spectral.fourier_selfsimilar once per coefficient: the batched path with batches of one",
        "outputs": "same exact-zero flags and certified error bits at every coefficient, values "
        "within the sum of the two stated errors; after and one bitwise identical",
        "repeats": args.repeats,
        "rows": rows,
        "growth_exponent_in_dump_range": exponents,
        "environment": environment(),
    }
    write_json(args.out, record)
    for name, fit in exponents.items():
        print(f"{name}: growth exponent in R " + ", ".join(f"{fit[p]:.2f} {p}" for p in PATHS))
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
