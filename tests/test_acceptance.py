"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; seeds are fixed; each criterion asserts its
stated runtime budget.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from toruswalk import chains, cli, fractal, groupcond, spectral, stats
from toruswalk.exactcore import (
    IntMatrix,
    IrrationalBasis,
    Scalar,
    TorusPoint,
    adapted_norm,
)
from conftest import random_expanding_matrix, random_point, random_scalar

B = IrrationalBasis(("sqrt2",))
F = Fraction


class Budget:
    def __init__(self, criterion: int, seconds: float, description: str):
        self.criterion = criterion
        self.seconds = seconds
        self.description = description

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded budget: "
                f"{elapsed:.1f}s > {self.seconds}s"
            )
            print(
                f"ACCEPTANCE {self.criterion} PASS ({elapsed:.1f}s) {self.description}"
            )
        else:
            print(f"ACCEPTANCE {self.criterion} FAIL {self.description}")
        return False


def random_ifs(rng, dim, alphabet, max_entry=5):
    d = random_expanding_matrix(rng, dim, max_entry)
    exps = tuple(int(rng.integers(1, 4)) for _ in range(alphabet))
    trans = tuple(random_point(rng, B, dim) for _ in range(alphabet))
    return fractal.AffineIFS(d, exps, trans, (F(1, alphabet),) * alphabet)


def test_criterion_01_exact_orbit_identity():
    rng = np.random.default_rng(101)
    with Budget(1, 10.0, "exact orbit identity, 200 random instances, tolerance 0"):
        for _ in range(200):
            ifs = random_ifs(rng, int(rng.integers(1, 3)), int(rng.integers(2, 5)))
            w = fractal.sample_word(ifs, rng, int(rng.integers(1, 21)))
            n = int(rng.integers(0, len(w) + 1))
            lhs, rhs = fractal.orbit_identity_check(ifs, w, n)
            assert lhs == rhs


def test_criterion_02_exact_commutation_identity():
    rng = np.random.default_rng(102)
    with Budget(2, 10.0, "commutation identity, 200 random instances, tolerance 0"):
        for trial in range(200):
            dim = int(rng.integers(1, 3))
            n_maps = int(rng.integers(2, 4))
            if trial % 2 == 0:
                base = random_expanding_matrix(rng, dim, 3)
                linears = [base ** int(rng.integers(1, 3)) for _ in range(n_maps)]
            else:
                linears = [
                    IntMatrix.from_rows(
                        np.diag(rng.integers(2, 6, size=dim)).tolist()
                    )
                    for _ in range(n_maps)
                ]
            endos = [
                fractal.AffineEndo(lin, tuple(random_point(rng, B, dim).coords))
                for lin in linears
            ]
            x0 = random_point(rng, B, dim)
            m = int(rng.integers(0, 11))
            js = [int(a) for a in rng.integers(1, n_maps + 1, size=m)]
            ell, s = (int(a) for a in rng.integers(1, n_maps + 1, size=2))
            left = fractal.walk_trajectory(endos, x0, [s, ell] + js[::-1])[-1]
            right = fractal.walk_trajectory(endos, x0, [ell, s] + js[::-1])[-1]
            ident = IntMatrix.identity(dim)
            inner = [
                a - b
                for a, b in zip(
                    (ident - endos[s - 1].linear).apply(endos[ell - 1].offset),
                    (ident - endos[ell - 1].linear).apply(endos[s - 1].offset),
                )
            ]
            prod = IntMatrix.identity(dim)
            for j in js:
                prod = prod @ endos[j - 1].linear
            shift = TorusPoint(prod.apply(inner))
            diff = TorusPoint([a - b for a, b in zip(left.coords, right.coords)])
            assert diff == shift.reduced()


def test_criterion_03_exponent_bookkeeping():
    rng = np.random.default_rng(103)
    with Budget(3, 5.0, "exponent bookkeeping and kappa morphism, tolerance 0"):
        for _ in range(120):
            dim = int(rng.integers(1, 3))
            d = random_expanding_matrix(rng, dim, 3)
            k = int(rng.integers(2, 5))
            exps = [int(rng.integers(1, 5)) for _ in range(k)]
            while math.gcd(*exps) != 1:
                exps = [int(rng.integers(1, 5)) for _ in range(k)]
            rbar = max(exps)
            w = [int(a) for a in rng.integers(1, k + 1, size=int(rng.integers(1, 11)))]
            ell, s = fractal.kappa_ell_s(exps, w)
            assert 0 <= s < rbar
            total = sum(exps[a - 1] for a in w)
            assert rbar * (ell - 1) < total <= rbar * ell
            lhs = (d ** rbar) ** ell
            rhs = IntMatrix.identity(dim)
            for a in w:
                rhs = rhs @ (d ** exps[a - 1])
            rhs = rhs @ (d ** s)
            assert lhs.rows == rhs.rows
            # morphism additivity mod rbar
            cut = int(rng.integers(0, len(w) + 1))
            s1 = fractal.kappa_ell_s(exps, w[:cut])[1]
            s2 = fractal.kappa_ell_s(exps, w[cut:])[1]
            assert (s1 + s2) % rbar == s % rbar


def test_criterion_04_finite_stationary_support():
    rng = np.random.default_rng(104)
    with Budget(4, 5.0, "finite stationary support, 100 instances, tolerance 0"):
        for trial in range(100):
            k = int(rng.integers(1, 4))
            sign = -1 if trial % 10 == 9 else 1
            ds = [sign * int(rng.integers(2, 6)) for _ in range(k)]
            if rng.random() < 0.5:
                alpha1 = Scalar.rational(
                    F(int(rng.integers(-12, 13)), int(rng.integers(1, 13))), B
                )
            else:
                alpha1 = random_scalar(rng, B, denom_max=6, irrational_prob=1.0)
            alphas = [alpha1]
            for j in range(1, k):
                beta = F(int(rng.integers(0, 12)), int(rng.integers(1, 13)))
                alphas.append(
                    Scalar.rational(beta, B) + alpha1 * F(ds[j] - 1, ds[0] - 1)
                )
            raw_p = [int(rng.integers(1, 5)) for _ in range(k)]
            probs = [F(p, sum(raw_p)) for p in raw_p]
            fs = chains.build_finite_stationary(ds, alphas, probs)
            assert fs.q <= 12 * 12  # lcm of denominators <= 12 each
            # exact invariance of A + x0 under every map
            for i in range(k):
                for a in fs.a_values:
                    assert fs.map_state(i, a) in fs.a_values
            # mu * nu = nu exactly, plus exact stationarity of the vector
            assert fs.pushforward_is_stationary()
            for i in range(fs.q):
                assert (
                    sum(fs.stationary[j] * fs.transition[j].get(i, 0) for j in range(fs.q))
                    == fs.stationary[i]
                )


def test_criterion_05_eta_chain_law(tmp_path):
    with Budget(5, 60.0, "eta chain law and limit measure characters"):
        cfg = {
            "kind": "rational-case",
            "D": 3,
            "t": ["1/5", "7/10"],
            "P": ["1/2", "1/2"],
            "N": 100000,
            "K": 8,
            "seed": 105,
        }
        report = cli.run(cfg, tmp_path)
        res = report["results"]
        assert res["state_freq_dev"] <= 0.01
        assert res["char_dev"] <= 0.03
        checks = cli.verify_report(report, "rational-case")
        assert all(c["pass"] for c in checks)


def test_criterion_06_walk_equidistribution(tmp_path):
    with Budget(6, 60.0, "walk equidistribution for three starting points"):
        base = {
            "kind": "walk-sim",
            "irrationals": ["sqrt2"],
            "D": [2, 3],
            "alpha": ["0", "1*sqrt2"],
            "N": 100000,
            "K": 8,
            "seed": 106,
        }
        for i, x0 in enumerate(["0", "1/7", "1/2*sqrt2"]):
            report = cli.run(dict(base, x0=x0), tmp_path / str(i))
            res = report["results"]
            assert res["max_weyl"] <= 0.05, f"x0={x0}"
            assert res["star_discrepancy"] <= 0.02, f"x0={x0}"


def test_criterion_07_normality_in_dilated_cantor(tmp_path):
    with Budget(7, 120.0, "normality of a typical point of sqrt2 * Cantor set"):
        cfg = {
            "kind": "normality",
            "irrationals": ["sqrt2"],
            "D": 3,
            "r": [1, 1],
            "t": ["0", "2/3*sqrt2"],
            "P": ["1/2", "1/2"],
            "N": 10000,
            "L": 2,
            "seed": 107,
        }
        report = cli.run(cfg, tmp_path)
        res = report["results"]
        assert 15000 < report["precision_bits"] < 17500  # about 16 kbit
        assert res["max_block_deviation"] <= 0.02
        assert res["star_discrepancy"] <= 0.03
        checks = cli.verify_report(report, "normality")
        assert all(c["pass"] for c in checks)


def test_criterion_08_section5_counterexample():
    with Budget(8, 5.0, "Fourier product zeros and Haar convolution, exact path"):
        mu0 = spectral.SelfSimilarSpec.create(4, [F(0), F(1, 2)])
        nu = spectral.SelfSimilarSpec.create(4, [F(0), F(1, 4)])
        mu_c = mu0.coefficients()
        nu_c = nu.coefficients()
        for k in range(6):
            for m in range(-20, 21):
                assert mu_c(4 ** k * (2 * m + 1)).exact_zero
                assert nu_c(4 ** k * 2 * (2 * m + 1)).exact_zero
        conv = spectral.convolve(nu_c, mu_c)
        assert spectral.is_haar_up_to(conv, 1000)
        for n in range(1, 1001):
            _, kind, _ = spectral.classify_index(n)
            assert (mu_c if kind == "odd" else nu_c)(n).exact_zero
            _, kind_neg, _ = spectral.classify_index(-n)
            assert (mu_c if kind_neg == "odd" else nu_c)(-n).exact_zero


def test_criterion_09_rotation_case(tmp_path):
    with Budget(9, 30.0, "rotation walk equidistribution and rational control"):
        cfg = {
            "kind": "rotation-case",
            "irrationals": ["sqrt2"],
            "alpha": ["1/2", "1/4*sqrt2"],
            "x0": "0",
            "N": 100000,
            "K": 8,
            "seed": 109,
        }
        report = cli.run(cfg, tmp_path / "irrational")
        assert report["results"]["max_weyl"] <= 0.05
        control = {
            "kind": "rotation-case",
            "alpha": ["1/2", "1/4"],
            "x0": "0",
            "N": 100000,
            "K": 8,
            "seed": 109,
            "control_q": 4,
        }
        report2 = cli.run(control, tmp_path / "control")
        assert report2["results"]["control_char"] >= 0.9


def test_criterion_10_condition_checkers():
    rng = np.random.default_rng(110)
    with Budget(10, 10.0, "condition checkers and brute-force witness agreement"):
        three = IntMatrix.from_rows([[3]])
        zero = TorusPoint([Scalar.rational(0, B)])
        dilated = TorusPoint([Scalar(B, (F(0), F(2, 3)))])
        classical = TorusPoint([Scalar.rational(F(2, 3), B)])
        v1 = groupcond.condition_ifs(three, [1, 1], [zero, dilated])
        assert v1.dense
        v2 = groupcond.condition_ifs(three, [1, 1], [zero, classical])
        assert not v2.dense and v2.witness_pairs_integral()
        v3 = groupcond.condition_ifs(IntMatrix.from_rows([[2]]), [1, 2], [zero, zero])
        assert not v3.dense and v3.witness_pairs_integral()

        two = IntMatrix.from_rows([[2]])
        w1 = groupcond.condition_walk(
            [two, two], [zero, TorusPoint([Scalar(B, (F(0), F(1)))])]
        )
        assert w1.dense
        w2 = groupcond.condition_walk([two, IntMatrix.from_rows([[3]])], [zero, zero])
        assert not w2.dense and w2.witness_pairs_integral()

        for _ in range(100):
            d = int(rng.integers(1, 3))
            q = int(rng.integers(1, 13))
            pts = [
                TorusPoint(
                    [
                        Scalar.rational(F(int(rng.integers(0, q)), q), B)
                        for _ in range(d)
                    ]
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            verdict = groupcond.is_dense(pts)
            assert not verdict.dense
            assert verdict.witness_pairs_integral()
            found = _brute_force(pts, 12)
            assert found is not None


def _brute_force(points, k_inf):
    d = points[0].dimension
    for k in itertools.product(range(-k_inf, k_inf + 1), repeat=d):
        if not any(k):
            continue
        ok = True
        for p in points:
            acc = Scalar.rational(0, p.basis)
            for ki, s in zip(k, p.coords):
                acc = acc + s * ki
            if not acc.is_rational() or acc.rational_part.denominator != 1:
                ok = False
                break
        if ok:
            return k
    return None


def test_criterion_11_adapted_norm():
    rng = np.random.default_rng(111)
    vectors = np.random.default_rng(1111)
    with Budget(11, 10.0, "adapted norm rho > 1 on 50 commuting families"):
        for trial in range(50):
            dim = int(rng.integers(1, 4))
            if trial % 2 == 0:
                base = random_expanding_matrix(rng, dim, 3)
                family = [base ** p for p in range(1, int(rng.integers(2, 4)))]
            else:
                family = [
                    IntMatrix.from_rows(np.diag(rng.integers(2, 7, size=dim)).tolist())
                    for _ in range(int(rng.integers(1, 4)))
                ]
            norm = adapted_norm(family)
            assert norm.rho_certified > 1.0
            x = vectors.normal(size=(4096, dim)) + 1j * vectors.normal(size=(4096, dim))
            nx = norm.norm(x)
            for mat in family:
                nax = norm.norm(x @ mat.as_array().T)
                assert np.all(nax >= norm.rho_certified * nx * (1 - 1e-12))
