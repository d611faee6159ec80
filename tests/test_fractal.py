import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruswalk.exactcore import (
    IntMatrix,
    IrrationalBasis,
    Scalar,
    TorusPoint,
    fractional_part,
)
from toruswalk.fractal import (
    AffineEndo,
    AffineIFS,
    Word,
    WindowUnavailableError,
    code_prefix,
    code_prefix_fixed,
    coding_tail_bound,
    h_word_at_zero,
    kappa_ell_s,
    orbit_identity_check,
    precision_budget,
    repetition_weight,
    sample_word,
    walk_letter_stream,
    walk_orbit_fixed,
    walk_trajectory,
)
from conftest import random_expanding_matrix, random_point

B = IrrationalBasis(("sqrt2",))


@pytest.fixture
def middle_thirds():
    return AffineIFS.create(3, [1, 1], [["0"], ["2/3"]], basis=B)


@pytest.fixture
def dilated_cantor():
    t2 = Scalar(B, (Fraction(0), Fraction(2, 3)))
    return AffineIFS.create(3, [1, 1], [[Scalar.rational(0, B)], [t2]], basis=B)


def rational_ifs(rng, dim, alphabet, max_entry=5):
    d = random_expanding_matrix(rng, dim, max_entry)
    exps = [int(rng.integers(1, 4)) for _ in range(alphabet)]
    trans = [random_point(rng, B, dim) for _ in range(alphabet)]
    return AffineIFS(
        d,
        tuple(exps),
        tuple(trans),
        tuple([Fraction(1, alphabet)] * alphabet),
    )


class TestCodePrefix:
    def test_middle_thirds_f2_f1(self, middle_thirds):
        # f2(f1(0)) = 2/3
        out = code_prefix(middle_thirds, (2, 1))
        assert out[0].rational_part == Fraction(2, 3)

    def test_middle_thirds_f1_f2(self, middle_thirds):
        out = code_prefix(middle_thirds, (1, 2))
        assert out[0].rational_part == Fraction(2, 9)

    def test_empty_word_is_basepoint(self, middle_thirds):
        assert code_prefix(middle_thirds, ())[0].coeffs == (Fraction(0), Fraction(0))


class TestCodingTailBound:
    def test_starts_at_diameter(self, middle_thirds):
        assert coding_tail_bound(middle_thirds, 0) >= 1.0 - 1e-12

    def test_monotone_decay_to_zero(self, middle_thirds):
        values = [coding_tail_bound(middle_thirds, n) for n in range(30)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-13

    def test_geometric_recursion(self, middle_thirds):
        rho = middle_thirds.adapted.rho_certified
        for n in range(5):
            a, b = coding_tail_bound(middle_thirds, n), coding_tail_bound(middle_thirds, n + 1)
            assert b <= a / rho * (1 + 1e-12)

    def test_actual_tail_within_bound(self, middle_thirds, rng):
        w = sample_word(middle_thirds, rng, 25)
        full = code_prefix(middle_thirds, w)[0]
        for n in (0, 3, 7):
            prefix = code_prefix(middle_thirds, w.letters[:n])[0]
            gap = abs(float(full - prefix))
            assert gap <= coding_tail_bound(middle_thirds, n) + 1e-12


class TestSampleWord:
    def test_deterministic(self, middle_thirds):
        w1 = sample_word(middle_thirds, np.random.default_rng(5), 100)
        w2 = sample_word(middle_thirds, np.random.default_rng(5), 100)
        assert w1.letters == w2.letters

    def test_law_of_large_numbers(self, middle_thirds):
        w = sample_word(middle_thirds, np.random.default_rng(7), 100000)
        freq = np.mean(np.array(w.letters) == 1)
        assert abs(freq - 0.5) < 0.01

    def test_serial_correlation(self, middle_thirds):
        w = np.array(sample_word(middle_thirds, np.random.default_rng(9), 100000).letters)
        x = w - w.mean()
        r = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(r) < 0.02

    def test_letters_validated(self):
        with pytest.raises(ValueError):
            Word((0, 1), 2)

    @pytest.mark.parametrize(
        "letters, k", [((1, 0, 2), 3), ((0,), 2), ((3,), 2), ((1, 2, 3, 2), 2), ((2, 1, 3), 2)]
    )
    def test_letters_out_of_range_anywhere(self, letters, k):
        # 0 and k + 1, first, last or inside the word
        with pytest.raises(ValueError, match="out of range"):
            Word(letters, k)

    def test_letters_in_range_and_empty_word(self):
        assert len(Word((), 2)) == 0
        assert Word((2, 1, 2, 1), 2).letters == (2, 1, 2, 1)

    @pytest.mark.parametrize(
        "law", [["1", "1"], ["3/2", "-1/2"], ["1", "-1"], ["1/2", "0", "1/2"], ["1/3", "1/3"]]
    )
    def test_letter_stream_refuses_a_law_not_summing_to_one(self, law):
        # such weights were divided by their sum, or ended in NaN probabilities
        with pytest.raises(ValueError, match="positive and sum to 1"):
            walk_letter_stream([Fraction(p) for p in law], np.random.default_rng(0), 10)

    def test_letter_stream_draws_of_a_valid_law(self):
        law = [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)]
        p = np.array([float(q) for q in law])
        want = np.random.default_rng(4).choice([1, 2, 3], size=500, p=p / p.sum())
        got = walk_letter_stream(law, np.random.default_rng(4), 500)
        assert got.tolist() == want.tolist()


class TestWalkTrajectory:
    def test_doubling_map_on_third(self):
        h = AffineEndo(IntMatrix.scalar(2), (Scalar.rational(0, B),))
        x0 = TorusPoint([Scalar.rational(Fraction(1, 3), B)])
        traj = walk_trajectory([h], x0, (1, 1))
        assert [p.coords[0].rational_part for p in traj] == [Fraction(2, 3), Fraction(1, 3)]

    def test_sqrt2_walk(self):
        h1 = AffineEndo(IntMatrix.scalar(2), (Scalar.rational(0, B),))
        h2 = AffineEndo(IntMatrix.scalar(2), (Scalar(B, (Fraction(0), Fraction(1))),))
        x0 = TorusPoint([Scalar.rational(0, B)])
        traj = walk_trajectory([h1, h2], x0, (2, 1))
        assert traj[0] == TorusPoint([Scalar(B, (Fraction(0), Fraction(1)))])
        assert traj[1] == TorusPoint([Scalar(B, (Fraction(0), Fraction(2)))])

    def test_concatenation(self, rng):
        base = random_expanding_matrix(rng, 2, 3)
        endos = [
            AffineEndo(base, tuple(random_point(rng, B, 2).coords)),
            AffineEndo(base @ base, tuple(random_point(rng, B, 2).coords)),
        ]
        x0 = random_point(rng, B, 2)
        w = tuple(int(a) for a in rng.integers(1, 3, size=10))
        full = walk_trajectory(endos, x0, w)
        first = walk_trajectory(endos, x0, w[:4])
        rest = walk_trajectory(endos, first[-1], w[4:])
        assert full[:4] == first and full[4:] == rest

    def test_non_commuting_rejected(self):
        a = AffineEndo(IntMatrix.from_rows([[2, 1], [0, 3]]), tuple(random_point(np.random.default_rng(0), B, 2).coords))
        b = AffineEndo(IntMatrix.from_rows([[3, 0], [1, 2]]), tuple(random_point(np.random.default_rng(1), B, 2).coords))
        x0 = TorusPoint([Scalar.rational(0, B), Scalar.rational(0, B)])
        with pytest.raises(ValueError):
            walk_trajectory([a, b], x0, (1, 2))


class TestHWordAtZero:
    def test_empty(self, dilated_cantor):
        out = h_word_at_zero(dilated_cantor, ())
        assert out == TorusPoint([Scalar.rational(0, B)])

    def test_single_step(self, dilated_cantor):
        # 3 * (2 sqrt2 / 3) = 2 sqrt2 mod 1
        out = h_word_at_zero(dilated_cantor, (2,))
        assert out == TorusPoint([Scalar(B, (Fraction(0), Fraction(2)))])

    def test_matches_walk_composition(self, rng):
        # two independent code paths agree exactly on random instances
        for _ in range(25):
            ifs = rational_ifs(rng, int(rng.integers(1, 3)), int(rng.integers(2, 4)), 3)
            endos = ifs.walk_maps()
            w = sample_word(ifs, rng, int(rng.integers(1, 13)))
            x0 = TorusPoint([Scalar.rational(0, B)] * ifs.dimension)
            assert h_word_at_zero(ifs, w) == walk_trajectory(endos, x0, w)[-1]


class TestOrbitIdentity:
    def test_one_step_middle_thirds(self, middle_thirds):
        lhs, rhs = orbit_identity_check(middle_thirds, (2, 1, 2), 1)
        assert lhs == rhs

    def test_n_zero(self, dilated_cantor, rng):
        w = sample_word(dilated_cantor, rng, 6)
        lhs, rhs = orbit_identity_check(dilated_cantor, w, 0)
        assert lhs == rhs

    def test_random_instances_exact(self, rng):
        for _ in range(30):
            ifs = rational_ifs(rng, int(rng.integers(1, 3)), int(rng.integers(2, 5)), 4)
            w = sample_word(ifs, rng, int(rng.integers(1, 21)))
            n = int(rng.integers(0, len(w) + 1))
            lhs, rhs = orbit_identity_check(ifs, w, n)
            assert lhs == rhs


class TestCommutationIdentity:
    def test_random_instances(self, rng):
        # h_{j...} h_l h_s (x) - h_{j...} h_s h_l (x) =
        #     D_{j_1}...D_{j_m} ((I - D_s) a_l - (I - D_l) a_s)   mod Z^d
        # (h_s innermost; the swap set is symmetric under l <-> s)
        for _ in range(25):
            dim = int(rng.integers(1, 3))
            base = random_expanding_matrix(rng, dim, 3)
            n_maps = int(rng.integers(2, 4))
            endos = [
                AffineEndo(base ** int(rng.integers(1, 3)), tuple(random_point(rng, B, dim).coords))
                for _ in range(n_maps)
            ]
            x0 = random_point(rng, B, dim)
            m = int(rng.integers(0, 8))
            js = [int(a) for a in rng.integers(1, n_maps + 1, size=m)]
            ell, s = (int(a) for a in rng.integers(1, n_maps + 1, size=2))
            left = walk_trajectory(endos, x0, [s, ell] + js[::-1])[-1] if m else walk_trajectory(endos, x0, [s, ell])[-1]
            right = walk_trajectory(endos, x0, [ell, s] + js[::-1])[-1] if m else walk_trajectory(endos, x0, [ell, s])[-1]
            ident = IntMatrix.identity(dim)
            term_l = (ident - endos[s - 1].linear).apply(endos[ell - 1].offset)
            term_s = (ident - endos[ell - 1].linear).apply(endos[s - 1].offset)
            inner = [a - b for a, b in zip(term_l, term_s)]
            prod = IntMatrix.identity(dim)
            for j in js:
                prod = prod @ endos[j - 1].linear
            shift = TorusPoint(prod.apply(inner))
            assert TorusPoint([a - b for a, b in zip(left.coords, right.coords)]) == shift.reduced()


class TestKappa:
    def test_mixed_exponents(self):
        assert kappa_ell_s((1, 2), (1, 2, 2)) == (3, 1)

    def test_uniform(self):
        assert kappa_ell_s((1, 1), (1, 1)) == (2, 0)

    def test_matrix_identity(self, rng):
        # Dbar^ell = D_{i_1} ... D_{i_n} D^s as exact integer matrices
        for _ in range(20):
            dim = int(rng.integers(1, 3))
            d = random_expanding_matrix(rng, dim, 3)
            k = int(rng.integers(2, 4))
            exps = [int(rng.integers(1, 4)) for _ in range(k)]
            while math.gcd(*exps) != 1:
                exps = [int(rng.integers(1, 4)) for _ in range(k)]
            w = [int(a) for a in rng.integers(1, k + 1, size=int(rng.integers(1, 11)))]
            ell, s = kappa_ell_s(exps, w)
            rbar = max(exps)
            lhs = (d ** rbar) ** ell
            rhs = IntMatrix.identity(dim)
            for a in w:
                rhs = rhs @ (d ** exps[a - 1])
            rhs = rhs @ (d ** s)
            assert lhs.rows == rhs.rows

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=4),
           st.lists(st.integers(1, 2), max_size=8), st.lists(st.integers(1, 2), max_size=8))
    def test_morphism_additivity(self, exps, w1, w2):
        rbar = max(exps)
        k = len(exps)
        w1 = [1 + (a % k) for a in w1]
        w2 = [1 + (a % k) for a in w2]
        s_cat = kappa_ell_s(exps, w1 + w2)[1]
        s_sum = kappa_ell_s(exps, w1)[1] + kappa_ell_s(exps, w2)[1]
        assert s_cat % rbar == s_sum % rbar


class TestRepetitionWeight:
    def test_uniform_weight_one(self):
        assert repetition_weight((1, 1), (1, 2, 1, 2), 2) == 1

    def test_pairs_weight_half(self):
        # r=(1,2), all-1 word: ell = ceil(n/2) repeats in pairs
        w = (1,) * 12
        assert repetition_weight((1, 2), w, 3) == Fraction(1, 2)
        assert repetition_weight((1, 2), w, 4) == Fraction(1, 2)

    def test_range_property(self, rng):
        exps = (1, 3)
        w = tuple(int(a) for a in rng.integers(1, 3, size=40))
        for n in range(5, 30):
            weight = repetition_weight(exps, w, n)
            assert Fraction(1, 3) <= weight <= 1

    def test_window_unavailable_at_end(self):
        with pytest.raises(WindowUnavailableError):
            repetition_weight((1, 2), (1,), 1)

    def test_windowed_equals_global_count(self, rng):
        # the radius-rbar window reproduces the full multiplicity count
        for _ in range(30):
            k = int(rng.integers(2, 4))
            exps = tuple(int(rng.integers(1, 5)) for _ in range(k))
            rbar = max(exps)
            w = tuple(int(a) for a in rng.integers(1, k + 1, size=30))
            totals = [0]
            for a in w:
                totals.append(totals[-1] + exps[a - 1])
            ells = [-(-t // rbar) for t in totals[1:]]
            for n in range(1, len(w) - rbar):
                global_mult = ells.count(ells[n - 1])
                assert repetition_weight(exps, w, n) == Fraction(1, global_mult)


class TestWordReaders:
    """Every exact reader of a word refuses the letters the orbit engine
    refuses, with the engine's error."""

    @pytest.mark.parametrize("bad", [0, -1, 3])
    def test_letters_outside_the_alphabet_raise_like_the_engine(self, bad):
        from toruswalk.chains import build_eta_chain

        ifs = AffineIFS.create(3, [1, 2], [[0], [2]])
        maps = ifs.walk_maps()
        x0 = TorusPoint([Scalar.rational(0, ifs.basis)])
        eta = build_eta_chain(3, [t.coords[0] for t in ifs.translations])
        word = [1, bad]
        with pytest.raises(ValueError) as engine:
            walk_orbit_fixed(maps, x0, word)
        readers = [
            lambda: code_prefix(ifs, word),
            lambda: h_word_at_zero(ifs, word),
            lambda: orbit_identity_check(ifs, word, 1),
            lambda: kappa_ell_s(ifs.exponents, word),
            lambda: repetition_weight(ifs.exponents, word, 1),
            lambda: walk_trajectory(maps, x0, word),
            lambda: eta.walk(np.array(word)),
        ]
        for read in readers:
            with pytest.raises(ValueError) as refused:
                read()
            assert type(refused.value) is type(engine.value)
            assert str(refused.value) == str(engine.value)


class TestContraction:
    def test_maps_contract_in_adapted_norm(self, rng):
        for _ in range(10):
            ifs = rational_ifs(rng, 2, 2, 3)
            norm = ifs.adapted
            x = random_point(rng, B, 2)
            y = random_point(rng, B, 2)
            gap = np.array([float(a - b) for a, b in zip(x.coords, y.coords)])
            for letter in (1, 2):
                fx = ifs.apply_map(letter, x.coords)
                fy = ifs.apply_map(letter, y.coords)
                fgap = np.array([float(a - b) for a, b in zip(fx, fy)])
                assert norm.norm(fgap) <= norm.norm(gap) / norm.rho_certified + 1e-9


class TestGcdNormalization:
    def test_exponents_reduced(self):
        ifs = AffineIFS.create(2, [2, 4], [["0"], ["1/2"]], basis=B)
        assert ifs.exponents == (1, 2)
        assert ifs.d_matrix.rows == ((4,),)


class TestFixedPointPaths:
    def test_walk_orbit_matches_exact_trajectory(self, rng):
        h1 = AffineEndo(IntMatrix.scalar(2), (Scalar.rational(0, B),))
        h2 = AffineEndo(IntMatrix.scalar(3), (Scalar(B, (Fraction(0), Fraction(1))),))
        x0 = TorusPoint([Scalar.rational(Fraction(1, 7), B)])
        letters = [int(a) for a in rng.integers(1, 3, size=40)]
        orbit = walk_orbit_fixed([h1, h2], x0, letters)
        exact = walk_trajectory([h1, h2], x0, letters)
        for i, point in enumerate(exact):
            want = float(fractional_part(point.coords[0], 80))
            assert abs(orbit.points[i, 0] - want) <= orbit.error_bound + 1e-15

    def test_walk_orbit_matches_exact_2d(self, rng):
        base = IntMatrix.from_rows([[2, 1], [0, 3]])
        endos = [
            AffineEndo(base, (Scalar.rational(0, B), Scalar(B, (Fraction(0), Fraction(1))))),
            AffineEndo(base @ base, (Scalar.rational(Fraction(1, 3), B), Scalar.rational(0, B))),
        ]
        x0 = TorusPoint([Scalar.rational(0, B), Scalar.rational(Fraction(1, 5), B)])
        letters = [int(a) for a in rng.integers(1, 3, size=25)]
        orbit = walk_orbit_fixed(endos, x0, letters)
        exact = walk_trajectory(endos, x0, letters)
        for i, point in enumerate(exact):
            for j in range(2):
                want = float(fractional_part(point.coords[j], 80))
                assert abs(orbit.points[i, j] - want) <= orbit.error_bound + 1e-15

    def test_code_prefix_fixed_matches_exact(self, rng, dilated_cantor):
        w = sample_word(dilated_cantor, rng, 60)
        bits = 512
        fixed, err = code_prefix_fixed(dilated_cantor, w, bits)
        exact = code_prefix(dilated_cantor, w)[0]
        val, eerr = exact.evaluate(512)
        approx = Fraction(fixed, 1 << bits)
        assert abs(approx - val) <= Fraction(err, 1 << bits) + eerr

    def test_precision_budget_matches_log(self):
        d = IntMatrix.scalar(3)
        assert precision_budget([d], 10000, 96) == math.ceil(10000 * math.log2(3)) + 96
