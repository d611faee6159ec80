"""Large-N scaling of the certified inputs: whole runs, and the Newton square
root and division against the builtins they replace.

Runs, through `toruswalk.cli` with precision auto and seed 0, each in a
fresh process so that its peak RSS is its own:

  * walk-sim, D = [2, 3], alpha = [0, sqrt2], x0 = 1/7, K = 8;
  * normality of the sqrt2-dilated middle-thirds Cantor set in base 3
    (D = 3, r = [1, 1], t = [0, 2/3 sqrt2]), L = 4;

at N = 10^5, 2 10^5, 5 10^5, 10^6 and 2 10^6.  Each row gives the wall
seconds of the run, its peak RSS, the report's `precision_bits` (the largest
`auto` precision of the run) and the seconds of its two certified-input
steps: the square roots behind `Scalar.fixed_point` (every call of a sqrtN
constant's dyadic function) and the division by D^S in `code_prefix_fixed`.
Growth exponents in N are fitted per kind from 10^5 to 2 10^6.  With
`--before SRC`, the toruswalk package under SRC (an older tree's `src`) runs
too, loaded in its processes by `harness.load_package`, and the runs of the
two trees alternate.

The helper rows time `math.isqrt(2 << 2p)` against `exactcore._sqrt_floor(2,
p)` at p bits of root, and `divmod(a, 3^S)` against `exactcore._divmod` for a
random 2L-bit a and 3^S of L bits (a divisor D^S as `code_prefix_fixed`
builds it), from 2,000 to 2 10^6 bits, forcing the Newton path at every
size.  They are what the crossovers SQRT_NEWTON_BITS and DIVMOD_NEWTON_BITS
rest on; run the script again to measure them on another machine.

    PYTHONPATH=src python3 bench/fixed_point_scaling.py [--out BENCH_scaling.json]
    PYTHONPATH=src python3 bench/fixed_point_scaling.py --before ../old/src
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import alternate_seconds, environment, growth_exponent, load_package, write_json

RUN_SIZES = [100_000, 200_000, 500_000, 1_000_000, 2_000_000]
HELPER_BITS = [
    2_000, 3_000, 5_000, 10_000, 20_000, 40_000, 80_000,
    160_000, 320_000, 640_000, 1_000_000, 2_000_000,
]
CONFIGS = {
    "walk-sim": {
        "kind": "walk-sim",
        "irrationals": ["sqrt2"],
        "D": [2, 3],
        "alpha": ["0", "1*sqrt2"],
        "x0": "1/7",
        "K": 8,
    },
    "normality": {
        "kind": "normality",
        "irrationals": ["sqrt2"],
        "D": 3,
        "r": [1, 1],
        "t": ["0", "2/3*sqrt2"],
        "L": 4,
    },
}


# ---------------------------------------------------------------------------
# one run, in its own process


def _timed_steps(package) -> dict:
    """Wrap the package's square roots and coded-prefix division so that
    their seconds add up in the returned dict.  The roots are the dyadic
    functions `_sqrt_dyadic` builds (resolve_evaluator calls it once per
    constant).  The division is `fractal._divmod` where it exists; an older
    tree calls the builtin `divmod` there, which a module global of the same
    name shadows, and only its calls on divisors above 64 bits (those of
    `code_prefix_fixed`) are counted."""
    exact, fractal = package.exactcore, package.fractal
    spent = {"sqrt_s": 0.0, "division_s": 0.0}
    make = exact._sqrt_dyadic

    def sqrt_dyadic(n):
        dyadic = make(n)

        def timed(p):
            start = time.perf_counter()
            try:
                return dyadic(p)
            finally:
                spent["sqrt_s"] += time.perf_counter() - start

        return timed

    def timed_division(divide):
        def division(a, b):
            start = time.perf_counter()
            try:
                return divide(a, b)
            finally:
                if abs(b).bit_length() > 64:
                    spent["division_s"] += time.perf_counter() - start

        return division

    exact._sqrt_dyadic = sqrt_dyadic
    if hasattr(fractal, "_divmod"):
        fractal._divmod = timed_division(fractal._divmod)
    else:
        fractal.divmod = timed_division(divmod)
    return spent


def child(src: str | None, kind: str, count: int) -> dict:
    """One run of `kind` at N = count; src None is the package on the path."""
    if src:
        package = load_package(src)
    else:
        import toruswalk as package
    importlib.import_module(f"{package.__name__}.cli")  # not imported by __init__
    spent = _timed_steps(package)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({**CONFIGS[kind], "N": count, "seed": 0}))
        start = time.perf_counter()
        code = package.cli.main(["run", str(config), "-o", str(Path(tmp) / "out")])
        wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"{kind} N={count} exited with {code}")
        report = json.loads((Path(tmp) / "out" / "report.json").read_text())
    return {
        "wall_s": wall,
        **spent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "precision_bits": report["precision_bits"],
    }


def run_in_process(src: str | None, kind: str, count: int) -> dict:
    argv = [sys.executable, __file__, "--child", kind, str(count)]
    if src:
        argv += ["--before", src]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def measure_runs(trees: dict, sizes: list[int]) -> dict:
    """{kind: {label: rows}}, the trees alternating at each size."""
    record = {}
    for kind in CONFIGS:
        rows = {label: [] for label in trees}
        for count in sizes:
            for label, src in trees.items():
                row = {"N": count, **run_in_process(src, kind, count)}
                rows[label].append(row)
                print(kind, label, json.dumps(row), flush=True)
        record[kind] = rows
    return record


# ---------------------------------------------------------------------------
# the helpers against the builtins


def _repeats(bits: int) -> int:
    return 15 if bits <= 40_000 else 5 if bits <= 320_000 else 1


def measure_helpers(sizes: list[int]) -> dict:
    from toruswalk import exactcore

    rng = random.Random(0)
    saved = exactcore.SQRT_NEWTON_BITS, exactcore.DIVMOD_NEWTON_BITS
    exactcore.SQRT_NEWTON_BITS = exactcore.DIVMOD_NEWTON_BITS = 0
    sqrt_rows, division_rows = [], []
    try:
        for bits in sizes:
            if exactcore._sqrt_floor(2, bits) != math.isqrt(2 << (2 * bits)):
                raise AssertionError(f"_sqrt_floor(2, {bits}) differs from math.isqrt")
            builtin, helper = alternate_seconds(
                [lambda: math.isqrt(2 << (2 * bits)), lambda: exactcore._sqrt_floor(2, bits)],
                _repeats(bits),
            )
            sqrt_rows.append(_helper_row(bits, builtin, helper))
            print("sqrt", json.dumps(sqrt_rows[-1]), flush=True)
            b = 3 ** math.ceil(bits / math.log2(3))
            a = rng.getrandbits(2 * b.bit_length())
            if exactcore._divmod(a, b) != divmod(a, b):
                raise AssertionError(f"_divmod differs from divmod at {bits} bits")
            builtin, helper = alternate_seconds(
                [lambda: divmod(a, b), lambda: exactcore._divmod(a, b)], _repeats(bits)
            )
            division_rows.append(_helper_row(b.bit_length(), builtin, helper))
            print("division", json.dumps(division_rows[-1]), flush=True)
    finally:
        exactcore.SQRT_NEWTON_BITS, exactcore.DIVMOD_NEWTON_BITS = saved
    return {
        "sqrt": {
            "rows": sqrt_rows,
            "crossover_bits": saved[0],
            "measured_crossover_bits": _measured_crossover(sqrt_rows),
            **_exponents(sqrt_rows),
        },
        "division": {
            "rows": division_rows,
            "crossover_bits": saved[1],
            "measured_crossover_bits": _measured_crossover(division_rows),
            **_exponents(division_rows),
        },
    }


def _helper_row(bits: int, builtin: list[float], helper: list[float]) -> dict:
    row = {"bits": bits, "builtin_s": statistics.median(builtin), "helper_s": statistics.median(helper)}
    row["speedup"] = row["builtin_s"] / row["helper_s"]
    return row


def _measured_crossover(rows: list[dict]) -> int | None:
    """The smallest size from which the helper wins at every size measured."""
    crossover = None
    for row in reversed(rows):
        if row["helper_s"] >= row["builtin_s"]:
            break
        crossover = row["bits"]
    return crossover


def _exponents(rows: list[dict]) -> dict:
    # from 10,000 bits, where the fixed costs no longer hide the growth
    large = [r for r in rows if r["bits"] >= 10_000]
    large = large if len(large) >= 2 else rows
    return {
        "builtin_growth_exponent_bits": growth_exponent(large, "bits", "builtin_s"),
        "helper_growth_exponent_bits": growth_exponent(large, "bits", "helper_s"),
    }


# ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_scaling.json")
    parser.add_argument("--label", default="after", help="key of this tree's runs")
    parser.add_argument("--before", help="src directory of an older tree to run alternately")
    parser.add_argument("--before-label", default="before", help="key of the older tree's runs")
    parser.add_argument("--sizes", type=int, nargs="+", default=RUN_SIZES, help="N of the runs")
    parser.add_argument("--helper-bits", type=int, nargs="+", default=HELPER_BITS)
    parser.add_argument("--child", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.before, args.child[0], int(args.child[1]))))
        return
    if args.before and args.before_label == args.label:
        parser.error("--before-label must differ from --label")
    trees = {args.before_label: args.before} if args.before else {}
    trees[args.label] = None
    runs = measure_runs(trees, args.sizes)
    record = {
        "benchmark": "large-N walk-sim and normality runs; Newton square root and division "
        "against math.isqrt and divmod",
        "environment": environment(),
        "helpers": measure_helpers(args.helper_bits),
        "runs": runs,
    }
    for kind, by_label in runs.items():
        for label, rows in by_label.items():
            record[f"{kind}_growth_exponent_n_{label}"] = growth_exponent(rows, "N", "wall_s")
            print(f"{kind} {label}: growth exponent in N {record[f'{kind}_growth_exponent_n_{label}']:.2f}")
    write_json(args.out, record)


if __name__ == "__main__":
    main()
