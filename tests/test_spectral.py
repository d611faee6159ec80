import cmath
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_fourier
from toruswalk import spectral
from toruswalk.spectral import (
    CoefficientFunction,
    DiscreteMeasure,
    FourierValue,
    SelfSimilarSpec,
    classify_index,
    convolve,
    diagnostics,
    family_exact_zero,
    fourier_discrete,
    fourier_selfsimilar,
    is_haar_up_to,
    routing_consistent,
    truncation_depth,
)

F = Fraction

MU0 = SelfSimilarSpec.create(4, [0, F(1, 2)])
NU = SelfSimilarSpec.create(4, [0, F(1, 4)])


def product_formula_oracle(n: int, gap: float, base: int = 4, terms: int = 40) -> float:
    """|mu-hat(n)| = prod |cos(base^-s * gap * pi * n)| (independent route)."""
    out = 1.0
    for s in range(terms):
        out *= abs(math.cos(base ** -s * gap * math.pi * n))
    return out


def enumeration_oracle(spec: SelfSimilarSpec, n: int, depth: int = 11) -> complex:
    """Average of characters over all depth-length words (direct definition)."""
    total = 0 + 0j
    weights = [float(w) for w in spec.weights]
    atoms = [float(a) for a in spec.atoms]
    for word in itertools.product(range(len(atoms)), repeat=depth):
        x = 0.0
        w = 1.0
        for s, j in enumerate(word):
            x += atoms[j] / spec.base ** s
            w *= weights[j]
        total += w * cmath.exp(2j * math.pi * n * x)
    return total


class TestFourierDiscrete:
    def test_antipodal_pair_exact_zero(self):
        m = DiscreteMeasure.uniform([F(0), F(1, 2)])
        v = fourier_discrete(m, 1)
        assert v.exact_zero and v.value == 0

    def test_point_mass_all_ones(self):
        m = DiscreteMeasure.point_mass()
        for n in (-3, 0, 1, 7):
            assert fourier_discrete(m, n).value == pytest.approx(1.0)

    def test_four_atoms_n5(self):
        m = DiscreteMeasure.uniform([F(1, 10), F(3, 10), F(7, 10), F(9, 10)])
        v = fourier_discrete(m, 5)
        assert v.value == pytest.approx(-1.0, abs=1e-20)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([F(0)], [F(1, 2)])

    def test_atoms_deduplicated_mod_one(self):
        m = DiscreteMeasure([F(0), F(1)], [F(1, 2), F(1, 2)])
        assert m.atoms == (F(0),) and m.weights == (F(1),)


class TestFourierSelfSimilar:
    def test_mu0_vanishes_at_one(self):
        v = fourier_selfsimilar(MU0, 1)
        assert v.exact_zero and v.value == 0

    def test_nu_vanishes_at_two(self):
        assert fourier_selfsimilar(NU, 2).exact_zero

    def test_total_mass(self):
        v = fourier_selfsimilar(MU0, 0)
        assert v.value == 1.0 and v.error == 0.0

    def test_against_cosine_product_formula(self):
        for n in (2, 3, 4, 8, 12, 100):
            got = fourier_selfsimilar(MU0, n, tol=1e-12)
            want = product_formula_oracle(n, gap=0.5)
            assert abs(abs(got.value) - want) <= got.error + 1e-10

    def test_against_direct_enumeration(self):
        for n in (1, 2, 3, 5):
            got = fourier_selfsimilar(NU, n, tol=1e-12)
            want = enumeration_oracle(NU, n)
            # enumeration truncates at depth 11: its own error ~ 4^-10
            assert abs(got.value - want) <= got.error + 1e-5

    def test_vanishing_pattern_families(self):
        for k in range(6):
            for m in range(-20, 21):
                assert fourier_selfsimilar(MU0, 4 ** k * (2 * m + 1)).exact_zero
                assert fourier_selfsimilar(NU, 4 ** k * (4 * m + 2)).exact_zero

    def test_tail_certification(self, rng):
        # recomputing at tol/10 moves the value by less than the stated error
        for _ in range(100):
            base = int(rng.integers(2, 6))
            atoms = [F(int(rng.integers(0, 8)), int(rng.integers(1, 9))) for _ in range(2)]
            if atoms[0] == atoms[1]:
                atoms[1] += F(1, 11)
            spec = SelfSimilarSpec.create(base, atoms)
            n = int(rng.integers(1, 200))
            tol = 10.0 ** -float(rng.integers(4, 9))
            coarse = fourier_selfsimilar(spec, n, tol)
            fine = fourier_selfsimilar(spec, n, tol / 10)
            if coarse.exact_zero:
                assert fine.exact_zero
            else:
                assert abs(coarse.value - fine.value) <= coarse.error + 1e-15

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            fourier_selfsimilar(MU0, 1, tol=0.0)

    def test_negative_base_matches_enumeration(self):
        spec = SelfSimilarSpec.create(-4, [F(0), F(1, 3)])
        for n in (1, 2, 3):
            got = fourier_selfsimilar(spec, n, tol=1e-12)
            want = enumeration_oracle(spec, n)
            assert abs(got.value - want) <= got.error + 1e-5


class TestConvolve:
    def test_point_mass_is_identity(self):
        delta = DiscreteMeasure.point_mass().coefficients()
        f = MU0.coefficients()
        conv = convolve(f, delta)
        for n in range(-5, 6):
            assert conv(n).value == pytest.approx(f(n).value, abs=1e-12)

    def test_modulus_bounded_by_factors(self):
        fa = MU0.coefficients()
        fb = NU.coefficients()
        conv = convolve(fa, fb)
        for n in range(1, 20):
            assert abs(conv(n).value) <= min(abs(fa(n).value), abs(fb(n).value)) + 1e-12

    def test_haar_convolution(self):
        conv = convolve(NU.coefficients(), MU0.coefficients())
        assert is_haar_up_to(conv, 200)

    def test_probability_normalization(self):
        conv = convolve(MU0.coefficients(), NU.coefficients())
        assert conv(0).value == 1.0
        assert conv(0) == FourierValue(1.0 + 0j, 0.0, exact_zero=False)


def constant(value: complex, error: float = 0.0) -> CoefficientFunction:
    return CoefficientFunction(lambda n: FourierValue(value, error), name="c")


def unit_complex(rng) -> complex:
    return complex(*rng.uniform(-1, 1, 2))


class TestConvolveError:
    """The stated error of a convolution coefficient against products of the
    exact values at 200 bits (mpmath), as tests/reference_fourier.py does."""

    def test_covers_the_rounding_of_the_product(self):
        rng = np.random.default_rng(2007)
        rounded = 0
        for _ in range(2000):
            x, y = unit_complex(rng), unit_complex(rng)
            got = convolve(constant(x), constant(y))(1)
            with mpmath.workprec(200):
                miss = abs(mpmath.mpc(got.value) - mpmath.mpc(x) * mpmath.mpc(y))
                assert miss <= got.error <= 2.3 * 2.0**-53 * abs(x) * abs(y)
                rounded += miss > 0
        # without its rounding term the stated error (0 here) would fail
        assert rounded > 1000

    def test_covers_every_value_within_the_inputs_errors(self):
        # the worst true values lie along the computed ones: a + e_a a/|a|
        rng = np.random.default_rng(76)
        for _ in range(500):
            x, y = unit_complex(rng), unit_complex(rng)
            ex, ey = (float(e) for e in 2.0 ** rng.uniform(-60, -20, 2))
            got = convolve(constant(x, ex), constant(y, ey))(1)
            with mpmath.workprec(200):
                tx = mpmath.mpc(x) * (1 + mpmath.mpf(ex) / abs(mpmath.mpc(x)))
                ty = mpmath.mpc(y) * (1 + mpmath.mpf(ey) / abs(mpmath.mpc(y)))
                assert abs(mpmath.mpc(got.value) - tx * ty) <= got.error

    def test_error_sum_rounded_upward(self):
        rng = np.random.default_rng(53)
        short = 0
        for _ in range(2000):
            x, y = unit_complex(rng), unit_complex(rng)
            ex, ey = (float(e) for e in rng.uniform(0, 1e-9, 2))
            got = convolve(constant(x, ex), constant(y, ey))(1)
            exact = F(abs(x)) * F(ey) + F(abs(y)) * F(ex) + F(ex) * F(ey)
            with mpmath.workprec(200):
                rounding = mpmath.sqrt(5) * mpmath.mpf(2) ** -53 * abs(x) * abs(y)
                exact = mpmath.mpf(exact.numerator) / exact.denominator + rounding
                assert mpmath.mpf(got.error) >= exact
                # the same sum rounded to nearest in float64 falls short
                near = abs(x) * ey + abs(y) * ex + ex * ey + math.sqrt(5) * 2.0**-53 * abs(x) * abs(y)
                short += mpmath.mpf(near) < exact
        assert short > 0

    def test_covers_the_200_bit_bound(self):
        # the stated error against |x| e_y + |y| e_x + e_x e_y + sqrt(5) u |x| |y|
        # with every modulus and product at 200 bits; the moduli span
        # subnormal to 1
        rng = np.random.default_rng(2021)
        for _ in range(1000):
            x, y = (unit_complex(rng) * 2.0 ** -int(rng.integers(0, 1075)) for _ in range(2))
            ex, ey = (float(e) for e in 2.0 ** rng.uniform(-60, -20, 2))
            got = convolve(constant(x, ex), constant(y, ey))(1)
            with mpmath.workprec(200):
                size_x, size_y = abs(mpmath.mpc(x)), abs(mpmath.mpc(y))
                bound = size_x * ey + size_y * ex + mpmath.mpf(ex) * ey
                bound += mpmath.sqrt(5) * mpmath.mpf(2) ** -53 * size_x * size_y
                assert mpmath.mpf(got.error) >= bound

    def test_modulus_bound(self):
        # an upper bound within 2^-63 of the 200-bit modulus, exact squares,
        # subnormal and huge parts included
        rng = np.random.default_rng(7)
        fixed = [0j, 1 + 0j, -1j, 3 + 4j, 1 + 1j, complex(2.0**-1074, 1), complex(5e-324, 5e-324), 1e300 + 1e300j]
        random = [unit_complex(rng) * 2.0 ** int(rng.integers(-1070, 1000)) for _ in range(2000)]
        for z in fixed + random:
            up = spectral._modulus_up(z)
            with mpmath.workprec(200):
                exact = abs(mpmath.mpc(z))
                assert exact <= mpmath.mpf(up.numerator) / up.denominator <= exact * (1 + mpmath.mpf(2) ** -63)

    @pytest.mark.parametrize("exact", [0j, 1 + 0j, -1 + 0j, 1j, -1j])
    def test_exact_factors_add_no_rounding(self, exact):
        x = unit_complex(np.random.default_rng(1))
        for a, b in ((exact, x), (x, exact)):
            got = convolve(constant(a), constant(b))(1)
            assert got.value == a * b and got.error == 0.0


class TestAffineOffset:
    def test_translation_is_a_pure_phase(self):
        # shifting both atoms by c multiplies coefficients by a unimodular
        # phase and never disturbs the exact-zero pattern
        shift = F(1, 3)
        shifted = SelfSimilarSpec.create(4, [shift, F(1, 2) + shift])
        for n in range(-12, 13):
            a = fourier_selfsimilar(MU0, n, 1e-11)
            b = fourier_selfsimilar(shifted, n, 1e-11)
            assert a.exact_zero == b.exact_zero
            if not a.exact_zero:
                assert abs(abs(a.value) - abs(b.value)) <= a.error + b.error

    def test_phase_value(self):
        # total translation of the attractor is c * D/(D-1)
        shift = F(1, 8)
        shifted = SelfSimilarSpec.create(4, [shift, F(1, 2) + shift])
        n = 3
        a = fourier_selfsimilar(MU0, n, 1e-12)
        b = fourier_selfsimilar(shifted, n, 1e-12)
        phase = cmath.exp(2j * math.pi * n * float(shift * F(4, 3)))
        assert b.value == pytest.approx(a.value * phase, abs=1e-9)


class TestClassifyIndex:
    def test_twelve(self):
        assert classify_index(12) == (1, "odd", 1)

    def test_six(self):
        assert classify_index(6) == (0, "twice_odd", 1)

    def test_minus_one(self):
        assert classify_index(-1) == (0, "odd", -1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_index(0)

    @given(st.integers(-10 ** 9, 10 ** 9).filter(lambda w: w != 0))
    def test_reconstruction(self, w):
        k, kind, m = classify_index(w)
        if kind == "odd":
            assert 4 ** k * (2 * m + 1) == w
        else:
            assert 4 ** k * (4 * m + 2) == w

    def test_completeness_to_million(self):
        for w in range(1, 10 ** 6 + 1):
            k, kind, m = classify_index(w)
            rebuilt = 4 ** k * ((2 * m + 1) if kind == "odd" else (4 * m + 2))
            if rebuilt != w:
                pytest.fail(f"reconstruction failed at {w}")


def bump(at: int) -> CoefficientFunction:
    """Haar's coefficients, except 1e-3 (certified to 1e-6) at index `at`."""
    return CoefficientFunction(
        lambda n: FourierValue(1e-3 + 0j, 1e-6) if n == at else CoefficientFunction.haar()(n)
    )


def below(value: complex, bound: float, centre: float = 0.0) -> bool:
    """|value - centre| < bound over Fractions: the exact verdict."""
    re, im = F(value.real) - F(centre), F(value.imag)
    return re * re + im * im < F(bound) ** 2


def ulps(x: float, k: int) -> float:
    """x moved by k ulps."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


finite_parts = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-1e-280, 1e-280, allow_nan=False),  # squares that underflow in float
    st.sampled_from([0.0, -0.0, 1e300, -1e300]),
)


class TestZeroWithoutHypot:
    """provably_zero and the f(0) test decide |z| against the error exactly,
    with no libm hypot, even for values within an ulp of their error."""

    @given(finite_parts, finite_parts, st.integers(-3, 3))
    def test_within_an_ulp_of_the_error(self, re, im, k):
        z = complex(re, im)
        bound = ulps(abs(z), k)  # hypot places the error; the verdict must not use it
        if bound < 0 or bound == math.inf:
            return
        assert FourierValue(z, bound).provably_zero() == below(z, bound)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-60, 2.0**-700, 2.0**-1040, 2.0**600])
    def test_pythagorean_values(self, scale):
        z = complex(3 * scale, 4 * scale)  # |z| = 5 scale, exactly
        assert not FourierValue(z, 5 * scale).provably_zero()
        assert FourierValue(z, ulps(5 * scale, 1)).provably_zero()
        assert not FourierValue(z, ulps(5 * scale, -1)).provably_zero()

    @pytest.mark.parametrize(
        "re, im, bound",
        [
            (0.48162072173744286, 0.7227073396829082, 0.8684839770764006),
            (0.5631426696730399, 0.23742231435568067, 0.6111456632918917),
            (1.6030723648992038, 1.636443778311234, 2.2908053707543714),
            (1.2501702243559587, 1.1644894325205997, 1.7084967744536061),
        ],
    )
    def test_rounded_squares_that_mislead(self, re, im, bound):
        # the float re^2 + im^2 and bound^2 compare the wrong way round here
        z = complex(re, im)
        assert (re * re + im * im < bound * bound) != below(z, bound)
        assert re * re + im * im != bound * bound
        assert FourierValue(z, bound).provably_zero() == below(z, bound)

    def test_where_hypot_rounds_up(self):
        # |1 + i| = sqrt 2 lies below its float, which hypot returns: abs(z)
        # < bound says no, the exact comparison yes
        z, bound = 1 + 1j, math.sqrt(2.0)
        assert abs(z) == bound and below(z, bound)
        assert FourierValue(z, bound).provably_zero()

    @given(st.floats(-3.0, 3.0), st.floats(-1e-3, 1e-3), st.integers(-2, 2))
    def test_total_mass_within_an_ulp(self, re, im, k):
        z = complex(re, im)
        bound = ulps(abs(z - 1), k)
        if bound < 0:
            return
        haar = CoefficientFunction.haar()
        f = CoefficientFunction(lambda n: FourierValue(z, bound) if n == 0 else haar(n))
        assert is_haar_up_to(f, 3) == ((F(re) - 1) ** 2 + F(im) ** 2 <= F(bound) ** 2)

    @pytest.mark.parametrize("k, haar", [(0, True), (-1, False), (1, True)])
    def test_total_mass_exactly_at_the_error(self, k, haar):
        tick = 2.0**-40
        z = complex(1 + 3 * tick, 4 * tick)  # |z - 1| = 5 tick, exactly
        error = ulps(5 * tick, k)
        zeros = CoefficientFunction.haar()
        f = CoefficientFunction(lambda n: FourierValue(z, error) if n == 0 else zeros(n))
        assert is_haar_up_to(f, 2) == haar

    def test_values_that_are_not_finite(self):
        assert not FourierValue(complex(math.nan, 0.0), 1.0).provably_zero()
        assert not FourierValue(complex(math.inf, 0.0), math.inf).provably_zero()
        assert not FourierValue(0.5 + 0j, math.nan).provably_zero()
        assert FourierValue(1e300 + 1e300j, math.inf).provably_zero()
        assert not FourierValue(0j, -1.0).provably_zero()

    @pytest.mark.parametrize(
        "value, error", [(1 + 0j, math.nan), (complex(math.nan, 0.0), 1.0), (1 + 0j, math.inf)]
    )
    def test_total_mass_that_is_not_finite(self, value, error):
        # a NaN value or error at f(0) is refused; an infinite error admits any finite value
        zeros = CoefficientFunction.haar()
        f = CoefficientFunction(lambda n: FourierValue(value, error) if n == 0 else zeros(n))
        assert is_haar_up_to(f, 2) == (error == math.inf)


class TestIsHaar:
    def test_haar_is_haar(self):
        assert is_haar_up_to(CoefficientFunction.haar(), 50)

    def test_point_mass_fails_at_one(self):
        assert not is_haar_up_to(DiscreteMeasure.point_mass().coefficients(), 10)

    def test_total_mass_off_by_1e13_refused(self):
        # f(0) must be 1 within its certified error alone, here 0
        haar = CoefficientFunction.haar()
        heavy = CoefficientFunction(lambda n: FourierValue(1.0 + 1e-13 + 0j, 0.0) if n == 0 else haar(n))
        assert not is_haar_up_to(heavy, 5)
        covered = CoefficientFunction(lambda n: FourierValue(1.0 + 1e-13 + 0j, 2e-13) if n == 0 else haar(n))
        assert is_haar_up_to(covered, 5)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 7, 8, 9, 200, 1000])
    def test_haar_measures_against_the_oracle(self, n_max):
        for f in (CoefficientFunction.haar(), convolve(NU.coefficients(), MU0.coefficients())):
            assert is_haar_up_to(f, n_max) and reference_fourier.is_haar_up_to(f, n_max)

    # a failure at n = 1, at n = n_max (either sign) and just past n_max
    @example(n_max=1, at=1, sign=1)
    @example(n_max=8, at=8, sign=-1)
    @example(n_max=100, at=100, sign=1)
    @example(n_max=100, at=101, sign=-1)
    @given(st.integers(1, 300), st.integers(1, 300), st.sampled_from([1, -1]))
    def test_verdict_of_the_oracle(self, n_max, at, sign):
        f = bump(sign * at)
        assert is_haar_up_to(f, n_max) == reference_fourier.is_haar_up_to(f, n_max) == (at > n_max)

    def test_total_mass_not_one(self):
        for zero in (FourierValue(0.5 + 0j, 0.0), FourierValue(1.0 + 1e-9j, 1e-10)):
            f = CoefficientFunction(lambda n: zero if n == 0 else FourierValue(0j, 0.0, exact_zero=True))
            assert not is_haar_up_to(f, 10) and not reference_fourier.is_haar_up_to(f, 10)
            assert sorted(f.evaluated()) == [0]

    def test_a_failure_at_one_evaluates_the_first_block_only(self):
        coeffs = DiscreteMeasure.point_mass().coefficients()
        assert not is_haar_up_to(coeffs, 1000)
        assert sorted(coeffs.evaluated()) == [-1, 0, 1]

    def test_blocks_double(self):
        asked = []
        haar = CoefficientFunction.haar()
        f = CoefficientFunction(batch=lambda ns: asked.append(list(ns)) or haar.table(ns))
        assert is_haar_up_to(f, 10)
        assert asked == [[0], [1, -1], [2, -2, 3, -3], [4, -4, 5, -5, 6, -6, 7, -7], [8, -8, 9, -9, 10, -10]]

    def test_routing_through_classification(self):
        nu_c = NU.coefficients()
        mu_c = MU0.coefficients()
        for n in range(1, 500):
            _, kind, _ = classify_index(n)
            target = mu_c if kind == "odd" else nu_c
            assert target(n).exact_zero


class TestCounterexampleChecks:
    def test_zero_families(self):
        assert family_exact_zero(MU0.coefficients(), "odd", 3, 10)
        assert family_exact_zero(NU.coefficients(), "twice_odd", 3, 10)
        assert not family_exact_zero(NU.coefficients(), "odd", 3, 10)

    def test_every_member_is_evaluated(self):
        # nu(1) is not an exact zero: an early exit would stop there
        coeffs = NU.coefficients()
        assert not family_exact_zero(coeffs, "odd", 2, 4)
        assert len(coeffs.evaluated()) == len({4 ** k * (2 * m + 1) for k in range(3) for m in range(-4, 5)})

    def test_routing(self):
        assert routing_consistent(NU.coefficients(), MU0.coefficients(), 200)
        assert routing_consistent(MU0.coefficients(), NU.coefficients(), 200)
        # one measure cannot kill both index families; every index is
        # evaluated all the same
        coeffs = MU0.coefficients()
        assert not routing_consistent(coeffs, coeffs, 10)
        assert sorted(coeffs.evaluated()) == list(range(1, 11))

    def test_diagnostics(self):
        coeffs = MU0.coefficients(1e-12)
        for n in (1, 2, 3, 6):
            coeffs(n)
        diag = diagnostics(MU0, coeffs, 1e-12)
        # 1 and 3 are exact zeros; the deepest product is the one at 6
        assert diag["coefficients"] == 4
        assert diag["max_depth"] == truncation_depth(MU0, 6, 1e-12)
