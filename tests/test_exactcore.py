import inspect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruswalk.exactcore import (
    BasisMismatchError,
    IntMatrix,
    IrrationalBasis,
    NearIntegerError,
    Scalar,
    TorusPoint,
    _characteristic_polynomial,
    adapted_norm,
    commute,
    evaluate,
    format_scalar,
    fractional_part,
    is_expanding,
    mat_apply,
    parse_scalar,
    register_irrational,
    scalar_add,
    scalar_scale,
)
from conftest import random_expanding_matrix, random_scalar
import reference_linalg
from toruswalk import exactcore

ALPHA = IrrationalBasis(("sqrt2",))


def S(q, coeff=0):
    return Scalar(ALPHA, (Fraction(q), Fraction(coeff)))


def oracle_value(s: Scalar, dps=60) -> mpmath.mpf:
    with mpmath.workdps(dps):
        total = mpmath.mpf(s.coeffs[0].numerator) / s.coeffs[0].denominator
        for name, c in zip(s.basis.symbols, s.coeffs[1:]):
            assert name == "sqrt2"
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(2)
        return total


class TestScalarArithmetic:
    def test_add_coefficientwise(self):
        a = S(Fraction(1, 2))
        b = Scalar(ALPHA, (Fraction(1, 3), Fraction(2)))
        out = scalar_add(a, b)
        assert out.coeffs == (Fraction(5, 6), Fraction(2))

    def test_scale_by_zero(self):
        any_scalar = Scalar(ALPHA, (Fraction(7, 3), Fraction(-5, 2)))
        out = scalar_scale(0, any_scalar)
        assert out.coeffs == (Fraction(0), Fraction(0))

    def test_mat_apply_1x1(self):
        v = [Scalar(ALPHA, (Fraction(1, 2), Fraction(1)))]
        out = mat_apply([[3]], v)
        assert out[0].coeffs == (Fraction(3, 2), Fraction(3))

    def test_basis_mismatch_raises(self):
        other = IrrationalBasis(("sqrt3",))
        with pytest.raises(BasisMismatchError):
            S(1) + Scalar(other, (Fraction(1), Fraction(0)))

    def test_scalar_times_scalar_rejected(self):
        with pytest.raises(TypeError):
            S(1, 1) * S(2, 1)

    @given(st.integers(-50, 50), st.integers(1, 20), st.integers(-50, 50),
           st.integers(1, 20), st.integers(-50, 50), st.integers(1, 20))
    def test_addition_associative(self, n1, d1, n2, d2, n3, d3):
        a = Scalar(ALPHA, (Fraction(n1, d1), Fraction(n2, d2)))
        b = Scalar(ALPHA, (Fraction(n2, d2), Fraction(n3, d3)))
        c = Scalar(ALPHA, (Fraction(n3, d3), Fraction(n1, d1)))
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs

    def test_mat_apply_composes(self, rng):
        m = rng.integers(-4, 5, size=(2, 2)).tolist()
        n = rng.integers(-4, 5, size=(2, 2)).tolist()
        v = [random_scalar(rng, ALPHA) for _ in range(2)]
        mn = (IntMatrix.from_rows(m) @ IntMatrix.from_rows(n)).rows
        lhs = mat_apply(mn, v)
        rhs = mat_apply(m, mat_apply(n, v))
        assert [x.coeffs for x in lhs] == [x.coeffs for x in rhs]


class TestEvaluation:
    def test_rational_exact(self):
        val, err = evaluate(S(Fraction(1, 2)), 64)
        assert val == Fraction(1, 2) and err == 0

    def test_sqrt2_against_oracle(self):
        s = Scalar(ALPHA, (Fraction(0), Fraction(1)))
        val, err = evaluate(s, 64)
        assert err <= Fraction(1, 2 ** 60)
        assert abs(float(val) - float(mpmath.sqrt(2))) <= float(err) + 1e-16

    def test_combination_within_stated_bound(self):
        s = Scalar(ALPHA, (Fraction(1), Fraction(2)))
        val, err = evaluate(s, 16)
        assert err <= Fraction(1, 2 ** 15) * (1 + 3)
        oracle = oracle_value(s)
        assert abs(mpmath.mpf(val.numerator) / val.denominator - oracle) <= mpmath.mpf(
            err.numerator
        ) / err.denominator

    def test_minimum_precision_enforced(self):
        with pytest.raises(ValueError):
            evaluate(S(1), 4)

    def test_soundness_bulk(self, rng):
        # spec invariant: random scalars and precisions stay within the bound
        for _ in range(1000):
            s = random_scalar(rng, ALPHA, denom_max=9)
            p = int(rng.integers(8, 120))
            val, err = evaluate(s, p)
            size = 1 + sum(abs(c) for c in s.coeffs)
            assert err <= Fraction(1, 2 ** (p - 1)) * size
            with mpmath.workdps(80):
                diff = abs(
                    mpmath.mpf(val.numerator) / val.denominator - oracle_value(s)
                )
                bound = mpmath.mpf(err.numerator) / err.denominator if err else 0
            assert diff <= bound + mpmath.mpf(10) ** -55


def _sqrt5_base3(p: int) -> tuple[Fraction, Fraction]:
    """A registered evaluator with a non-dyadic value: floor(3^p sqrt5) / 3^p."""
    return Fraction(math.isqrt(5 * 9 ** p), 3 ** p), Fraction(1, 3 ** p)


register_irrational("sqrt5_base3", _sqrt5_base3)
FIXED_BASIS = IrrationalBasis(("sqrt2", "sqrt3", "pi", "e", "phi", "sqrt5_base3"))
coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
    st.integers(-(2 ** 70), 2 ** 70).map(Fraction),
)


class TestFixedPoint:
    """The fraction-free fixed_point against the Fraction formula."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(coefficients, min_size=7, max_size=7),
        st.booleans(),
        st.integers(8, 4096),
    )
    def test_agrees_with_the_fraction_formula(self, coeffs, custom, bits):
        # without the registered symbol every constant takes the dyadic route
        coeffs = coeffs if custom else coeffs[:6] + [Fraction(0)]
        scalar = Scalar(FIXED_BASIS, tuple(coeffs))
        assert scalar.fixed_point(bits) == reference_linalg.fixed_point(scalar, bits)

    @settings(max_examples=40, deadline=None)
    @given(coefficients, st.integers(0, 64))
    def test_rational_values(self, q, bits):
        scalar = Scalar.rational(q, FIXED_BASIS)
        assert scalar.fixed_point(bits) == reference_linalg.fixed_point(scalar, bits)

    def test_walk_precision(self):
        # the precision of the N = 100k walk with D = [2, 3]
        coeffs = (Fraction(1, 7), Fraction(3), Fraction(-2, 5), Fraction(5, 3), Fraction(-1, 9))
        scalar = Scalar(FIXED_BASIS, coeffs + (Fraction(7, 2), Fraction(0)))
        assert scalar.fixed_point(158_593) == reference_linalg.fixed_point(scalar, 158_593)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError, match="precision must be >= 8 bits"):
            S(1, 1).fixed_point(-1)


class TestFractionalPart:
    def test_rational_exact(self):
        assert fractional_part(S(Fraction(7, 3))) == Fraction(1, 3)

    def test_sqrt2_multiple_against_oracle(self):
        s = Scalar(ALPHA, (Fraction(0), Fraction(3)))
        out = fractional_part(s, 64)
        with mpmath.workdps(40):
            oracle = 3 * mpmath.sqrt(2) - 4
            diff = abs(mpmath.mpf(out.numerator) / out.denominator - oracle)
        assert diff <= mpmath.mpf(2) ** -60

    def test_exact_cancellation_to_integer(self):
        s = Scalar(ALPHA, (Fraction(0), Fraction(1)))
        combo = s - s + 1
        assert fractional_part(combo) == 0

    def test_near_integer_refusal(self):
        close = Fraction(141421356237309504880168, 10 ** 23)  # ~ sqrt(2) to 1e-24
        s = Scalar(ALPHA, (-close, Fraction(1)))
        with pytest.raises(NearIntegerError):
            fractional_part(s, 32)
        assert fractional_part(s, 128) > 0

    def test_negative_rational(self):
        assert fractional_part(S(Fraction(-7, 3))) == Fraction(2, 3)


class TestExpansion:
    def test_scalar_two(self):
        assert is_expanding(IntMatrix.from_rows([[2]]))

    def test_complex_pair_modulus_sqrt2(self):
        # characteristic polynomial x^2 + 2, both moduli sqrt(2) > 1
        assert is_expanding(IntMatrix.from_rows([[0, -2], [1, 0]]))

    def test_eigenvalue_one_is_false(self):
        assert not is_expanding(IntMatrix.from_rows([[1, 1], [0, 2]]))

    def test_rotation_root_of_unity_false(self):
        assert not is_expanding(IntMatrix.from_rows([[0, -1], [1, 0]]))

    def test_small_determinant_false(self):
        assert not is_expanding(IntMatrix.from_rows([[1, 0], [0, 5]]))

    def test_true_implies_det_at_least_two(self, rng):
        found = 0
        while found < 40:
            m = IntMatrix.from_rows(rng.integers(-5, 6, size=(2, 2)).tolist())
            if is_expanding(m):
                assert abs(m.det()) >= 2
                found += 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.lists(st.integers(-5, 5), min_size=d, max_size=d), min_size=d, max_size=d
            )
        )
    )
    def test_agrees_with_eigenvalue_reference(self, rows):
        # the exact test decides wherever the float reference does, the same way
        m = IntMatrix.from_rows(rows)
        try:
            expected = reference_linalg.is_expanding(m)
        except reference_linalg.IndeterminateExpansionError:
            expected = None
        verdict = is_expanding(m)
        assert isinstance(verdict, bool)
        if expected is not None:
            assert verdict == expected

    def test_order_fifteen_roots_of_unity(self):
        # companion of the 15th cyclotomic polynomial (+) [2]: det 2, and its
        # eigenvalues of modulus 1 are roots of unity of order 15 > 12, which
        # the reference's power probes miss and its float eigenvalues cannot
        # separate from 1
        phi15 = [1, -1, 0, 1, -1, 1, 0, -1, 1]  # lowest coefficient first
        rows = [[0] * 9 for _ in range(9)]
        for i in range(8):
            rows[i][7] = -phi15[i]
            if i:
                rows[i][i - 1] = 1
        rows[8][8] = 2
        m = IntMatrix.from_rows(rows)
        assert m.det() == 2
        with pytest.raises(reference_linalg.IndeterminateExpansionError):
            reference_linalg.is_expanding(m)
        assert not is_expanding(m)

    def test_characteristic_polynomial_values(self, rng):
        # a monic degree-d polynomial is fixed by its values at d points
        for _ in range(50):
            d = int(rng.integers(1, 6))
            m = IntMatrix.from_rows(rng.integers(-6, 7, size=(d, d)).tolist())
            coeffs = _characteristic_polynomial(m)
            assert len(coeffs) == d + 1 and coeffs[-1] == 1
            for z in range(-2, d):
                value = sum(c * z**i for i, c in enumerate(coeffs))
                assert value == (IntMatrix.scalar(z, d) - m).det()

    def test_no_margin_parameter(self):
        assert list(inspect.signature(is_expanding).parameters) == ["d_matrix"]


class TestCommute:
    def test_self(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert commute(a, a)

    def test_diagonal(self):
        assert commute(
            IntMatrix.from_rows([[2, 0], [0, 3]]), IntMatrix.from_rows([[3, 0], [0, 2]])
        )

    def test_shears_do_not_commute(self):
        a = IntMatrix.from_rows([[1, 1], [0, 1]])
        b = IntMatrix.from_rows([[1, 0], [1, 1]])
        assert (a @ b).rows != (b @ a).rows
        assert not commute(a, b)


def _expanding(rows):
    """An expanding matrix from any integer rows: the rows themselves when
    they expand, else the rows shifted by s = 2 + max row sum R times I, whose
    eigenvalues then all have modulus >= s - R = 2."""
    m = IntMatrix.from_rows(rows)
    if is_expanding(m):
        return m
    shift = 2 + max(sum(abs(x) for x in row) for row in rows)
    return IntMatrix.from_rows(
        [[x + shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    )


@st.composite
def commuting_expanding_families(draw):
    """Commuting expanding families in dimension 1-3: the first powers of one
    expanding integer matrix, or diagonal matrices with entries |x| >= 2."""
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rows = [draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)) for _ in range(d)]
        base = _expanding(rows)
        return [base ** p for p in range(1, draw(st.integers(1, 3)) + 1)]
    entry = st.integers(2, 6).flatmap(lambda x: st.sampled_from([x, -x]))
    diagonals = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=3))
    return [IntMatrix.from_rows(np.diag(diag).tolist()) for diag in diagonals]


def _assert_expands(norm, family, x):
    """||Ax|| >= rho_certified ||x|| for each row x and each A of the family."""
    nx = norm.norm(x)
    for mat in family:
        assert np.all(norm.norm(x @ mat.as_array().T) >= norm.rho_certified * nx * (1 - 1e-9))


class TestAdaptedNorm:
    def test_one_dimensional(self):
        norm = adapted_norm([IntMatrix.from_rows([[2]])])
        assert norm.weights == (1,)
        assert norm.rho_certified == pytest.approx(2.0)

    def test_diag_2_3_weights_and_rho(self):
        norm = adapted_norm([IntMatrix.from_rows([[2, 0], [0, 3]])])
        # lambda = 2, a = 3, d = 2: smallest integer above 6 is 7
        assert norm.weights == (1, 7)
        assert norm.rho_certified == pytest.approx(2.0)

    def test_sampled_expansion_property(self, rng):
        mats = [IntMatrix.from_rows([[2, 1], [0, 3]])]
        norm = adapted_norm(mats)
        assert norm.rho_certified > 1
        _assert_expands(norm, mats, rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2)))

    def test_rejects_non_commuting(self):
        a = IntMatrix.from_rows([[2, 1], [0, 3]])
        b = IntMatrix.from_rows([[3, 0], [1, 2]])
        with pytest.raises(ValueError):
            adapted_norm([a, b])

    def test_rejects_non_expanding(self):
        with pytest.raises(ValueError):
            adapted_norm([IntMatrix.from_rows([[1, 0], [0, 3]])])

    def test_power_family(self, rng):
        base = random_expanding_matrix(rng, 2, 3)
        assert adapted_norm([base, base @ base]).rho_certified > 1

    def test_defective_family(self, rng):
        # a Jordan block is not diagonalizable; the Schur route must still
        # produce a common triangularization for its powers
        jordan = IntMatrix.from_rows([[2, 1], [0, 2]])
        family = [jordan, jordan @ jordan]
        norm = adapted_norm(family)
        assert norm.rho_certified > 1
        _assert_expands(norm, family, rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2)))

    @settings(max_examples=150, deadline=None)
    @given(commuting_expanding_families(), st.integers(0, 2**32 - 1))
    def test_certified_factor_expands_every_family(self, family, seed):
        norm = adapted_norm(family)
        assert norm.rho_certified > 1
        rng = np.random.default_rng(seed)
        d = family[0].dimension
        _assert_expands(norm, family, rng.normal(size=(256, d)) + 1j * rng.normal(size=(256, d)))

    def test_construction_gated_on_the_certified_factor(self, monkeypatch):
        # Halving the triangular forms halves the certified factor of the
        # Jordan family (1.96 -> 0.96) while the matrices themselves, and
        # any sample of ||Ax|| / ||x|| taken from them, still expand.
        jordan = IntMatrix.from_rows([[2, 1], [0, 2]])
        family = [jordan, jordan ** 2, jordan ** 3]
        assert adapted_norm(family).rho_certified == pytest.approx(1.96, abs=0.01)
        schur = exactcore._simultaneous_schur

        def halved(arrays):
            q, tris = schur(arrays)
            return q, [t / 2 for t in tris]

        monkeypatch.setattr(exactcore, "_simultaneous_schur", halved)
        with pytest.raises(ArithmeticError, match="certified expansion factor 0.96"):
            adapted_norm(family)


class TestTorusPoint:
    def test_mod_z_equality(self):
        a = TorusPoint([Scalar(ALPHA, (Fraction(7, 3), Fraction(1)))])
        b = TorusPoint([Scalar(ALPHA, (Fraction(1, 3), Fraction(1)))])
        c = TorusPoint([Scalar(ALPHA, (Fraction(1, 3), Fraction(2)))])
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_reduced_canonical(self):
        a = TorusPoint([Scalar(ALPHA, (Fraction(-1, 3), Fraction(1)))])
        assert a.reduced().coords[0].rational_part == Fraction(2, 3)


class TestEvaluatorRegistry:
    def test_pi_constant(self):
        basis = IrrationalBasis(("pi",))
        s = Scalar.symbol("pi", basis)
        val, err = evaluate(s, 64)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(val.numerator) / val.denominator - mpmath.pi) <= (
                mpmath.mpf(err.numerator) / err.denominator
            )

    def test_sqrt_of_square_rejected(self):
        with pytest.raises(ValueError):
            IrrationalBasis(("sqrt9",))

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            IrrationalBasis(("mystery",))

    def test_custom_evaluator(self):
        from toruswalk.exactcore import register_irrational

        def cbrt2(p):
            num = round(2 ** (1 / 3) * (1 << min(p, 40)))
            return Fraction(num, 1 << min(p, 40)), Fraction(1, 1 << min(p, 39))

        register_irrational("cbrt2_demo", cbrt2)
        basis = IrrationalBasis(("cbrt2_demo",))
        s = Scalar.symbol("cbrt2_demo", basis)
        val, _ = evaluate(s, 16)
        assert abs(float(val) - 2 ** (1 / 3)) < 1e-4

    @pytest.mark.parametrize("p", [8, 9, 53, 200, 1000])
    def test_registered_constant_is_a_dyadic_floor(self, p):
        # a certified non-dyadic evaluator: floor(3^n cbrt3) / 3^n with
        # 3^-n <= 2^(1-n)
        def cbrt3(n):
            radicand, root = 3 * 27 ** n, 3 ** (n + 1)  # Newton from above
            while (step := (2 * root + radicand // root ** 2) // 3) < root:
                root = step
            return Fraction(root, 3 ** n), Fraction(1, 3 ** n)

        register_irrational("cbrt3_floor", cbrt3)
        s = Scalar.symbol("cbrt3_floor", IrrationalBasis(("cbrt3_floor",)))
        val, err = evaluate(s, p)
        a, _ = cbrt3(p + 2)
        assert val == Fraction(math.floor(a * 2 ** (p + 1)), 2 ** (p + 1))
        assert err == Fraction(1, 2 ** p)
        with mpmath.workprec(p + 64):
            exact = mpmath.cbrt(3)
            assert abs(mpmath.mpf(val.numerator) / val.denominator - exact) < mpmath.mpf(2) ** -p


class TestTextSyntax:
    def test_documented_example(self):
        s = parse_scalar("1/3 + 2/3*sqrt2", ALPHA)
        assert s.coeffs == (Fraction(1, 3), Fraction(2, 3))

    def test_minus_and_bare_integers(self):
        s = parse_scalar("-2 + 1/2*sqrt2 - 1/6", ALPHA)
        assert s.coeffs == (Fraction(-13, 6), Fraction(1, 2))

    def test_unknown_symbol(self):
        with pytest.raises(BasisMismatchError):
            parse_scalar("1/2*sqrt3", ALPHA)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_scalar("1//3 ++ sqrt2", ALPHA)

    def test_roundtrip_random(self, rng):
        for _ in range(200):
            s = random_scalar(rng, ALPHA, denom_max=12)
            assert parse_scalar(format_scalar(s), ALPHA).coeffs == s.coeffs

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar("0/0", ALPHA)

    @settings(max_examples=60)
    @given(st.text(max_size=20))
    def test_fuzz_never_crashes_uncontrolled(self, text):
        try:
            parse_scalar(text, ALPHA)
        except (ValueError, KeyError):
            pass
