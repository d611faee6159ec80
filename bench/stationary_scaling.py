"""q-scaling of the exact stationary-support solve.

Builds the stationary support of the walk D = [2, 3], alpha = [1/p1, 2/p2]
for q = p1 p2 = 143, 323, 667 and 1147, times the exact stationary solve on
the chain's sparse rows (`chains._terminal_class_stationary`: the row and
class checks and the multi-modular path) and the whole
`build_finite_stationary`, counts the word-size primes the solve used, fits
the growth exponent of the solve time in q, and times the fraction-free
(Bareiss) elimination of the same system, the previous solver and the
oracle, for q <= 323, checking that it gives the same vector.

    PYTHONPATH=src python3 bench/stationary_scaling.py [--out BENCH_stationary.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from fractions import Fraction

from toruswalk import chains, exactcore
from toruswalk.exactcore import Scalar

from harness import environment, growth_exponent, write_json

FACTORS = {143: (11, 13), 323: (17, 19), 667: (23, 29), 1147: (31, 37)}
ORACLE_MAX_Q = 323


def _bareiss_vector(transition) -> tuple[list[Fraction], float]:
    """The stationary vector from one dense fraction-free elimination of
    v (T - I) = 0, sum(v) = 1, for the sparse rows `transition`, and the
    seconds it took."""
    n = len(transition)
    start = time.perf_counter()
    a = [[Fraction(transition[j].get(i, 0)) - (i == j) for j in range(n)] for i in range(n - 1)]
    a.append([Fraction(1)] * n)
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    reduced, pivots, scale, _ = exactcore._bareiss_reduce(
        [row + [x] for row, x in zip(a, b)], n
    )
    if len(pivots) < n:
        raise ValueError("singular stationary system")
    vector = [Fraction(row[n], scale) for row in reduced]
    return vector, time.perf_counter() - start


def measure(q: int, repeats: int) -> dict:
    p1, p2 = FACTORS[q]
    alphas = [Scalar.rational(Fraction(1, p1)), Scalar.rational(Fraction(2, p2))]
    primes: list[int] = []
    solve_mod_prime = exactcore._solve_mod_prime

    def counting(entries, n, p):
        primes.append(p)
        return solve_mod_prime(entries, n, p)

    exactcore._solve_mod_prime = counting
    try:
        builds, solves = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            fs = chains.build_finite_stationary([2, 3], alphas)
            builds.append(time.perf_counter() - start)
            primes.clear()
            start = time.perf_counter()
            vector = chains._terminal_class_stationary(fs.transition)
            solves.append(time.perf_counter() - start)
    finally:
        exactcore._solve_mod_prime = solve_mod_prime
    row = {
        "q": q,
        "states": len(vector),
        "solve_s": statistics.median(solves),
        "build_s": statistics.median(builds),
        "primes_used": len(primes),
        "max_denominator_bits": max(x.denominator for x in vector).bit_length(),
    }
    if q <= ORACLE_MAX_Q:
        oracle, seconds = _bareiss_vector(fs.transition)
        if tuple(oracle) != vector:
            raise AssertionError(f"q={q}: multi-modular and Bareiss vectors differ")
        row["bareiss_s"] = seconds
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_stationary.json")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per q (median)")
    args = parser.parse_args()
    rows = []
    for q in FACTORS:
        rows.append(measure(q, args.repeats))
        print(json.dumps(rows[-1]))
    record = {
        "benchmark": "exact stationary-support solve, D = [2, 3], alpha = [1/p1, 2/p2]",
        "solver": "multi-modular (word-size primes, CRT, rational reconstruction, exact check)",
        "oracle": "dense fraction-free (Bareiss) elimination, q <= %d" % ORACLE_MAX_Q,
        "repeats": args.repeats,
        "rows": rows,
        "solve_growth_exponent_q": growth_exponent(rows, "q", "solve_s"),
        "environment": environment(),
    }
    write_json(args.out, record)
    print(f"growth exponent in q: {record['solve_growth_exponent_q']:.2f} -> {args.out}")


if __name__ == "__main__":
    main()
