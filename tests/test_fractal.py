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


def _coding_families():
    """One-dimensional IFS for the coded point's error: D in {3, -3, 49, 2},
    some r_i > 1, rational and sqrt2 translations.  In the 49 and 2 families
    the letter of largest |t_i| has the smallest exponent, so that letter
    repeated comes near max|t_i| g / (g - 1), g = |D|^r_min, and a tail
    term built from r_max falls short of it."""
    s2 = lambda q: Scalar(B, (Fraction(0), Fraction(q)))  # noqa: E731
    q = lambda q: Scalar.rational(Fraction(q), B)  # noqa: E731
    return [
        AffineIFS.create(3, [1, 1], [[q(0)], [s2("2/3")]], basis=B),
        AffineIFS.create(-3, [2, 1, 3], [[q("1/5")], [s2(-1)], [q("1/2")]], basis=B),
        AffineIFS.create(49, [1, 2], [[s2("3/7")], [q("-1/7")]], basis=B),
        AffineIFS.create(2, [1, 3, 2], [[q("-1/3")], [s2("1/5")], [q(0)]], basis=B),
    ]


def _widest_letter(ifs) -> int:
    return 1 + max(range(ifs.alphabet), key=lambda i: abs(float(ifs.translations[i].coords[0])))


def _prefix_error(ifs, w, bits):
    """(X, prefix error, T_i, E_T) of code_prefix_fixed without the tail,
    from U_k summed letter by letter."""
    d = ifs.d_matrix.rows[0][0]
    fixed = [t.coords[0].fixed_point(bits) for t in ifs.translations]
    t_err = max([1] + [e for _, e in fixed])
    s = sum(ifs.exponents[a - 1] for a in w)
    u = [0] * ifs.alphabet
    done = 0
    for a in w:
        u[a - 1] += d ** (s - done)
        done += ifs.exponents[a - 1]
    x, rem = divmod(sum(t * c for (t, _), c in zip(fixed, u)), d ** s)
    err = math.ceil(Fraction(t_err * sum(map(abs, u)), abs(d) ** s)) + (1 if rem else 0)
    return x, err, [t for t, _ in fixed], t_err


class TestCodingTailBound:
    """code_prefix_fixed's E covers every point of K whose coding begins with
    the word: the prefix's error plus the tail max|t_i| g / ((g - 1) |D|^S)."""

    def test_starts_at_diameter(self):
        # the empty word: X = 0 and E covers max|t_i| g / (g - 1), hence all of K
        bits = 128
        for ifs in _coding_families():
            fixed, err = code_prefix_fixed(ifs, [], bits)
            assert fixed == 0
            g = abs(ifs.d_matrix.rows[0][0]) ** min(ifs.exponents)
            for t in ifs.translations:
                val, eerr = t.coords[0].evaluate(bits + 64)
                assert (abs(val) + eerr) * Fraction(g, g - 1) <= Fraction(err, 1 << bits)

    @staticmethod
    def _tails(ifs, w, bits):
        """The exact tail tau of each prefix of w, tau shrinking by |D|^r with
        each letter r appended; code_prefix_fixed must add ceil(tau) to the
        prefix's error."""
        d_abs = abs(ifs.d_matrix.rows[0][0])
        g = d_abs ** min(ifs.exponents)
        taus = []
        for n in range(len(w) + 1):
            x, err, t_fixed, t_err = _prefix_error(ifs, w[:n], bits)
            if n == 0:
                tau = Fraction(max(abs(t) for t in t_fixed) + t_err) * g / (g - 1)
            else:
                tau /= d_abs ** ifs.exponents[w[n - 1] - 1]
            taus.append(tau)
            assert code_prefix_fixed(ifs, w[:n], bits) == (x, err + math.ceil(tau))
        return taus

    def test_geometric_recursion(self, rng):
        for ifs in _coding_families():
            w = [int(a) for a in rng.integers(1, ifs.alphabet + 1, 40)]
            self._tails(ifs, w, int(rng.integers(64, 300)))

    def test_monotone_decay_to_zero(self, rng):
        # the tail term never grows along the word; once |D|^S passes 2^bits
        # it is one ulp, the exact tail below 2^-20 ulps
        bits = 200
        for ifs in _coding_families():
            w = [int(a) for a in rng.integers(1, ifs.alphabet + 1, 250)]
            taus = self._tails(ifs, w, bits)
            tails = [math.ceil(tau) for tau in taus]
            assert all(b <= a for a, b in zip(tails, tails[1:]))
            assert tails[-1] == 1 and taus[-1] < Fraction(1, 2**20)

    def test_actual_tail_within_bound(self, rng):
        # exact: the interval of the coded point of w w' (evaluated 64 bits
        # further) lies inside X / 2^bits +- E / 2^bits, for random w and w'
        # and for w' repeating the letter of largest |t_i|
        for ifs in _coding_families():
            widest = _widest_letter(ifs)
            for trial in range(25):
                bits = int(rng.integers(64, 300))
                w = [int(a) for a in rng.integers(1, ifs.alphabet + 1, int(rng.integers(0, 12)))]
                if trial % 3:
                    ext = [int(a) for a in rng.integers(1, ifs.alphabet + 1, int(rng.integers(0, 30)))]
                else:
                    ext = [widest] * 40
                fixed, err = code_prefix_fixed(ifs, w, bits)
                val, eerr = code_prefix(ifs, w + ext)[0].evaluate(bits + 64)
                assert abs(Fraction(fixed, 1 << bits) - val) + eerr <= Fraction(err, 1 << bits)


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

    @staticmethod
    def _assert_every_reader_refuses(word):
        from toruswalk.chains import build_eta_chain

        ifs = AffineIFS.create(3, [1, 2], [[0], [2]])
        maps = ifs.walk_maps()
        x0 = TorusPoint([Scalar.rational(0, ifs.basis)])
        eta = build_eta_chain(3, [t.coords[0] for t in ifs.translations])
        readers = [
            lambda: walk_orbit_fixed(maps, x0, word),
            lambda: code_prefix_fixed(ifs, word, 64),
            lambda: code_prefix(ifs, word),
            lambda: eta.walk(np.array(word)),
        ]
        for read in readers:
            with pytest.raises(ValueError, match=r"^letters must index the map family \(1-based\)$"):
                read()

    @pytest.mark.parametrize("word", [[1.5], [1.5, 1.9], [1, 1.5] * 5, [float("nan")]])
    def test_non_integral_letters_raise(self, word):
        # astype would read 1.5 and 1.9 as letter 1
        self._assert_every_reader_refuses(word)

    @pytest.mark.parametrize("word", [[True, True], [True], np.array([True, True, True])])
    def test_boolean_letters_raise(self, word):
        # astype would read True as letter 1 (and False as letter 0)
        self._assert_every_reader_refuses(word)

    def test_last_of_128_letters(self):
        # the int8 indices of 128 letters wrapped index 127 + 1 to -128
        ifs = AffineIFS.create(2, [1] * 128, [[Fraction(i, 128)] for i in range(128)])
        assert code_prefix(ifs, [128]) == [Scalar.rational(Fraction(127, 128), ifs.basis)]

    def test_integral_floats_and_the_empty_word_read_as_letters(self):
        ifs = AffineIFS.create(3, [1, 2], [[0], [2]])
        assert code_prefix(ifs, [1.0, 2.0]) == code_prefix(ifs, [1, 2])
        assert code_prefix(ifs, []) == [Scalar.rational(0, ifs.basis)]


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
