"""q-scaling of the exact stationary-support solve, and the carry walk of the
rational case.

Builds the stationary support of the walk D = [2, 3], alpha = [1/p1, 2/p2]
for q = p1 p2 = 143, 323, 667, 1147 and 2021, whose chains are bijective, so
doubly stochastic, and whose vector is uniform, and of the walk D = [2, 3],
alpha = [0, 1/512], P = [1/7, 6/7], whose chain is not bijective and whose
512-state vector has denominators of 723 bits, so that it needs many primes.
For each it times the whole `build_finite_stationary` (`build_s`), the exact
stationary vector inside it (`chains._terminal_class_stationary`: the row and
class checks, the uniform vector or the multi-modular solve, and the exact
residual check, `solve_s`) and the experiment end to end through
`cli.main(["run", ...])` in this process (`run_s`), counts the word-size
primes the solve used (none for a uniform vector), and fits the growth
exponents of the solve and build times in q over the bijective rows.  For
q <= 323 it also times the fraction-free (Bareiss) elimination of the same
system, the oracle, and checks that it gives the same vector.

It then times `EtaChain.walk`, the carry chain's path, for the rational-case
IFS D = 3, t = [1/5, 7/10] (q = 2) along N = 10^5 and 10^6 seeded letters
(`walk_s`), and fits its growth exponent in N.

With `--before SRC`, the toruswalk package under SRC (an older tree's `src`)
is loaded next to this one, every timing alternates between the two, so that
a change of machine load reaches both alike, and both trees must return the
same vector and the same carry path.  The record keeps this tree's run under
"after" and the older tree's under "before", and each run of the script
rewrites the record:

    PYTHONPATH=src python3 bench/stationary_scaling.py [--out BENCH_stationary.json]
    PYTHONPATH=src python3 bench/stationary_scaling.py --before ../old/src
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import toruswalk
from toruswalk import exactcore

from harness import alternate_seconds, environment, growth_exponent, load_package, write_json

# q -> (D, alpha, P); P None is the uniform default
WALKS = {
    143: ([2, 3], ["1/11", "2/13"], None),
    323: ([2, 3], ["1/17", "2/19"], None),
    667: ([2, 3], ["1/23", "2/29"], None),
    1147: ([2, 3], ["1/31", "2/37"], None),
    2021: ([2, 3], ["1/43", "2/47"], None),
    512: ([2, 3], ["0", "1/512"], ["1/7", "6/7"]),
}
SCALING_Q = (143, 323, 667, 1147, 2021)
ORACLE_MAX_Q = 323
# the rational-case carry chain: D, t, and the walk lengths
CARRY = (3, ["1/5", "7/10"])
CARRY_N = (100_000, 1_000_000)


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


class _Tree:
    """One toruswalk package with a timed solve and a prime counter: each
    stationary solve records its seconds in `solve_s` and its primes in
    `primes`, and `build` keeps the chain it built in `built`."""

    def __init__(self, package):
        name = package.__name__
        self.chains = importlib.import_module(f"{name}.chains")
        self.exact = importlib.import_module(f"{name}.exactcore")
        self.cli = importlib.import_module(f"{name}.cli")
        self.solve_s: list[float] = []
        self.primes: list[int] = []
        self.built = None
        solve, solve_mod_prime = self.chains._terminal_class_stationary, self.exact._solve_mod_prime

        def timed_solve(transition):
            self.primes.clear()
            start = time.perf_counter()
            try:
                return solve(transition)
            finally:
                self.solve_s.append(time.perf_counter() - start)

        def counting(entries, n, p):
            self.primes.append(p)
            return solve_mod_prime(entries, n, p)

        self.chains._terminal_class_stationary = timed_solve
        self.exact._solve_mod_prime = counting

    def build(self, q: int):
        d_values, alphas, probabilities = WALKS[q]
        basis = self.exact.IrrationalBasis(())
        self.built = self.chains.build_finite_stationary(
            d_values,
            [self.exact.parse_scalar(a, basis) for a in alphas],
            None if probabilities is None else [Fraction(x) for x in probabilities],
        )

    def carry_chain(self):
        d_value, translations = CARRY
        basis = self.exact.IrrationalBasis(())
        return self.chains.build_eta_chain(
            d_value, [self.exact.parse_scalar(t, basis) for t in translations]
        )

    def run(self, config: Path) -> None:
        # the run prints the report's path
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            if self.cli.main(["run", str(config), "-o", out]) != 0:
                raise RuntimeError(f"{config}: run failed")


def measure(trees: dict, q: int, repeats: int, workdir: Path) -> dict:
    d_values, alphas, probabilities = WALKS[q]
    config = workdir / f"q{q}.json"
    fields = {"kind": "stationary-support", "D": d_values, "alpha": alphas}
    if probabilities is not None:
        fields["P"] = probabilities
    config.write_text(json.dumps(fields))
    for tree in trees.values():
        tree.solve_s.clear()
    builds = alternate_seconds([lambda t=t: t.build(q) for t in trees.values()], repeats)
    solves = {label: list(tree.solve_s) for label, tree in trees.items()}
    primes = {label: len(tree.primes) for label, tree in trees.items()}
    if len({tree.built.stationary for tree in trees.values()}) != 1:
        raise AssertionError(f"q={q}: the trees' stationary vectors differ")
    runs = alternate_seconds([lambda t=t: t.run(config) for t in trees.values()], repeats)
    built = next(iter(trees.values())).built
    vector = built.stationary
    oracle_s = None
    if q <= ORACLE_MAX_Q:
        oracle, oracle_s = _bareiss_vector(built.transition)
        if tuple(oracle) != vector:
            raise AssertionError(f"q={q}: multi-modular and Bareiss vectors differ")
    rows = {}
    for label, build_s, run_s in zip(trees, builds, runs):
        row = {
            "q": q,
            "D": d_values,
            "alpha": alphas,
            "P": probabilities,
            "states": len(vector),
            "solve_s": statistics.median(solves[label]),
            "build_s": statistics.median(build_s),
            "run_s": statistics.median(run_s),
            "run_range_s": [min(run_s), max(run_s)],
            "primes_used": primes[label],
            "max_numerator_bits": max(x.numerator.bit_length() for x in vector),
            "max_denominator_bits": max(x.denominator.bit_length() for x in vector),
        }
        if oracle_s is not None:
            row["bareiss_s"] = oracle_s
        rows[label] = row
    return rows


def measure_carry_walk(trees: dict, n: int, repeats: int) -> dict:
    """Seconds of each tree's EtaChain.walk along the same n letters; the
    trees must give the same path."""
    chains = {label: tree.carry_chain() for label, tree in trees.items()}
    letters = np.random.default_rng(n).integers(1, len(CARRY[1]) + 1, size=n)
    paths = {label: eta.walk(letters) for label, eta in chains.items()}
    first = next(iter(paths.values()))
    if any(not np.array_equal(first, path) for path in paths.values()):
        raise AssertionError(f"N={n}: the trees' carry walks differ")
    walks = alternate_seconds([lambda e=eta: e.walk(letters) for eta in chains.values()], repeats)
    return {
        label: {"N": n, "D": CARRY[0], "t": CARRY[1], "q": chains[label].q,
                "walk_s": statistics.median(spent), "walk_range_s": [min(spent), max(spent)]}
        for label, spent in zip(chains, walks)
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_stationary.json")
    parser.add_argument("--before", help="src directory of an older tree to time alternately")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per q (median)")
    args = parser.parse_args()
    trees = {}
    if args.before:
        trees["before"] = _Tree(load_package(args.before))
    trees["after"] = _Tree(toruswalk)
    by_label = {label: [] for label in trees}
    carry = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as workdir:
        for q in WALKS:
            for label, row in measure(trees, q, args.repeats, Path(workdir)).items():
                by_label[label].append(row)
                print(label, json.dumps(row))
    for n in CARRY_N:
        for label, row in measure_carry_walk(trees, n, args.repeats).items():
            carry[label].append(row)
            print(label, json.dumps(row))
    record = {
        "benchmark": "exact stationary-support solve and run: D = [2, 3], alpha = [1/p1, 2/p2];"
        " D = [2, 3], alpha = [0, 1/512], P = [1/7, 6/7]; rational-case carry walk:"
        " D = 3, t = [1/5, 7/10]",
        "solver": "uniform vector for a doubly stochastic chain, otherwise multi-modular"
        " (word-size primes, CRT, rational reconstruction); exact residual check on both",
        "oracle": "dense fraction-free (Bareiss) elimination, q <= %d" % ORACLE_MAX_Q,
        "runs": {},
    }
    for label, rows in by_label.items():
        scaling = [r for r in rows if r["q"] in SCALING_Q]
        run = {"rows": rows, "carry_walk": carry[label], "repeats": args.repeats,
               "environment": environment()}
        for seconds in ("solve_s", "build_s"):
            key = f"{seconds[:-2]}_growth_exponent_q"
            run[key] = growth_exponent(scaling, "q", seconds)
            print(f"{label}: {seconds} growth exponent in q: {run[key]:.2f}")
        run["walk_growth_exponent_n"] = growth_exponent(carry[label], "N", "walk_s")
        if args.before:
            run["alternated_with"] = [other for other in trees if other != label]
        record["runs"][label] = run
    write_json(args.out, record)
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
