"""Cost per Fourier coefficient of the self-similar measures of the fourier
benchmark, against the per-call path it replaced.

For each measure (mu0: base 4, atoms 0 and 1/2; nu: base 4, atoms 0 and
1/4; tri: base 3, atoms 0, 1/3 and 2/3 with weights 1/4, 1/2, 1/4), at the
tolerance 1e-12 of the benchmark configs and dump ranges R = 125, 250, 500
and 1000, times the evaluation of every coefficient n = -R..R:

  * "after": `spectral.fourier_selfsimilar` on a fresh spec, so the one-time
    derivation of the measure's integer data is part of the time;
  * "before": `percall_fourier_selfsimilar` of `tests/reference_fourier.py`,
    which derives that data at every call and calls a one-scale evaluator
    once per scale factor.

Every coefficient of the two paths must have the same bits (value, error,
exact-zero flag); the script stops otherwise.  It records the time per
coefficient, the exact-zero fraction and the growth exponent of the total
time in R for both paths.

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


def _spec(name: str) -> spectral.SelfSimilarSpec:
    base, atoms, weights = MEASURES[name]
    return spectral.SelfSimilarSpec.create(
        base, [Fraction(a) for a in atoms], None if weights is None else [Fraction(w) for w in weights]
    )


def _bits(v: spectral.FourierValue) -> tuple:
    return v.value.real.hex(), v.value.imag.hex(), v.error.hex(), v.exact_zero


def measure(name: str, dump_range: int, repeats: int) -> dict:
    indices = range(-dump_range, dump_range + 1)
    after = [spectral.fourier_selfsimilar(_spec(name), n, TOL) for n in indices]
    before = [reference_fourier.percall_fourier_selfsimilar(_spec(name), n, TOL) for n in indices]
    for n, a, b in zip(indices, after, before):
        if _bits(a) != _bits(b):
            raise SystemExit(f"{name}: coefficient {n} differs: {a} vs {b}")

    def run_after():
        spec = _spec(name)
        for n in indices:
            spectral.fourier_selfsimilar(spec, n, TOL)

    def run_before():
        spec = _spec(name)
        for n in indices:
            reference_fourier.percall_fourier_selfsimilar(spec, n, TOL)

    count = len(indices)
    before_s, after_s = median_seconds([run_before, run_after], repeats)
    return {
        "measure": name,
        "dump_range": dump_range,
        "coefficients": count,
        "exact_zero_frac": sum(v.exact_zero for v in after) / count,
        "before_s": before_s,
        "after_s": after_s,
        "before_us_per_coeff": 1e6 * before_s / count,
        "after_us_per_coeff": 1e6 * after_s / count,
        "speedup": before_s / after_s,
    }


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
        exponents[name] = {path: growth_exponent(mine, "dump_range", f"{path}_s") for path in ("before", "after")}
    record = {
        "benchmark": "self-similar Fourier coefficients n = -R..R at tol 1e-12, per measure",
        "before": "tests/reference_fourier.py percall_fourier_selfsimilar: measure data "
        "derived per call, one evaluator call per scale factor",
        "after": "spectral.fourier_selfsimilar: measure data derived once per spec, "
        "one evaluator call per coefficient",
        "outputs": "bitwise identical at every coefficient",
        "repeats": args.repeats,
        "rows": rows,
        "growth_exponent_in_dump_range": exponents,
        "environment": environment(),
    }
    write_json(args.out, record)
    for name, fit in exponents.items():
        print(f"{name}: growth exponent in R {fit['before']:.2f} before, {fit['after']:.2f} after")
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
