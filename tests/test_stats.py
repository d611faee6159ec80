import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_output
from toruswalk import fractal, stats
from toruswalk.exactcore import IntMatrix, IrrationalBasis, Scalar, TorusPoint, fractional_part
from toruswalk.fractal import AffineEndo, walk_trajectory
from toruswalk.spectral import CoefficientFunction, DiscreteMeasure
from toruswalk.stats import (
    OrbitSample,
    DISCREPANCY_CHECKPOINTS,
    all_blocks,
    block_frequencies,
    block_table,
    character_means,
    control_character,
    digit_block_freqs,
    extract_digits,
    fourier_table,
    running_discrepancy,
    star_discrepancy_1d,
    subsequence_compare,
    weyl_sums,
)

B = IrrationalBasis(("sqrt2",))
F = Fraction


def sample_1d(points, err=0.0):
    return OrbitSample(np.asarray(points, dtype=float), err, 64)


def van_der_corput(n, base=2):
    out = np.empty(n)
    for i in range(n):
        x, f, k = 0.0, 1.0 / base, i + 1
        while k:
            x += f * (k % base)
            k //= base
            f /= base
        out[i] = x
    return out


# sizes around one node of the pairwise pass, its first split, and deep trees
PAIRWISE_SIZES = [1, 7, 16383, 16384, 16385, 32769, 10**6 + 3]


class TestWeylSums:
    def test_cube_roots_of_unity(self):
        s = sample_1d([0.0, 1 / 3, 2 / 3])
        ws = weyl_sums(s, 3)
        assert ws[(1,)] == pytest.approx(0.0, abs=1e-14)
        assert ws[(3,)] == pytest.approx(1.0)
        # the control character is the same |S_N(q)|
        assert control_character(s, 3) == pytest.approx(1.0)
        assert control_character(s, 1) == pytest.approx(0.0, abs=1e-14)

    def test_iid_uniform_small(self):
        pts = np.random.default_rng(123).random(100000)
        ws = weyl_sums(sample_1d(pts), 8)
        assert max(ws.values()) < 0.02

    def test_bounded_by_one(self):
        pts = np.random.default_rng(5).random(500)
        assert all(v <= 1 + 1e-12 for v in weyl_sums(sample_1d(pts), 6).values())

    def test_2d_grid(self):
        rng = np.random.default_rng(7)
        pts = rng.random((20000, 2))
        ws = weyl_sums(OrbitSample(pts, 0.0, 64), 2)
        assert len(ws) == 24  # 5^2 - 1
        assert max(ws.values()) < 0.03

    def test_error_budget_refusal(self):
        bad = OrbitSample(np.array([0.5]), 1e-9, 20)
        with pytest.raises(ValueError):
            weyl_sums(bad, 2)

    @pytest.mark.parametrize("dim, n, k_max", [(2, 500, 4), (3, 200, 3)])
    def test_grid_within_rounding_of_exact_means(self, dim, n, k_max):
        # each value within (||k||_1 + log2 N) 2^-50 of the 200-bit mean of
        # e(k.x) over the same float points
        pts = np.random.default_rng(40 + dim).random((n, dim))
        means = character_means(OrbitSample(pts, 0.0, 64), k_max)
        with mpmath.workprec(200):
            # e(x_j)^m = e^{2 pi i m x_j} for every point, coordinate and |m| <= K
            exps = range(-k_max, k_max + 1)
            powers = [
                [{m: mpmath.expjpi(2 * m * mpmath.mpf(float(x))) for m in exps} for x in row]
                for row in pts
            ]
            for k, value in means.items():
                total = mpmath.mpc(0)
                for row in powers:
                    term = mpmath.mpc(1)
                    for table, c in zip(row, k):
                        term *= table[c]
                    total += term
                gap = abs(value - complex(total / n))
                assert gap <= (sum(map(abs, k)) + math.log2(n)) * 2.0 ** -50, k

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_grid_order_and_conjugate_half(self, dim):
        pts = np.random.default_rng(50 + dim).random((1001, dim))
        means = character_means(OrbitSample(pts, 0.0, 64), 3)
        assert list(means) == [k for k in itertools.product(range(-3, 4), repeat=dim) if any(k)]
        for k, value in means.items():
            conj = means[tuple(-c for c in k)].conjugate()
            for got, want in ((value.real, conj.real), (value.imag, conj.imag)):
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), k

    @pytest.mark.parametrize(
        "n, k_max", [(1, 1), (997, 8), (20000, 5)] + [(n, 8) for n in PAIRWISE_SIZES[1:]]
    )
    def test_one_dimensional_grid_is_the_power_recurrence(self, n, k_max):
        # bit for bit: rational-case reports read these values, and the
        # pass sums the nodes of numpy's pairwise tree, not the whole array
        sample = sample_1d(np.random.default_rng(n).random(n))
        means = character_means(sample, k_max)
        old = reference_output.character_means(sample, k_max)
        assert sorted(means) == sorted(old)
        for k, value in means.items():
            assert np.complex128(value).tobytes() == np.complex128(old[k]).tobytes(), k


class TestPairwiseNodes:
    """The character pass and the control character run over the nodes of
    numpy's pairwise summation; every value is that of np.mean over the
    whole sample, bit for bit (d = 1: the power recurrence, above)."""

    @pytest.mark.parametrize("n", PAIRWISE_SIZES)
    @pytest.mark.parametrize("dim", [2, 3])
    def test_character_means_are_the_whole_array_means(self, dim, n):
        # the grid shrinks with the size so that the reference's whole-array
        # powers stay small
        k_max = {2: 3 if n < 10**5 else 1, 3: 2 if n < 10**5 else 1}[dim]
        pts = np.random.default_rng(dim * 100 + n % 97).random((n, dim))
        sample = OrbitSample(pts, 0.0, 64)
        means = character_means(sample, k_max)
        old = reference_output.character_power_means(sample, k_max)
        assert list(means) == list(old)
        for k, value in means.items():
            assert np.complex128(value).tobytes() == np.complex128(old[k]).tobytes(), k

    @pytest.mark.parametrize("n", PAIRWISE_SIZES)
    def test_control_character_is_the_whole_array_mean(self, n):
        pts = np.random.default_rng(n % 89).random((n, 2))
        for q in (1, 3, 7):
            want = float(abs(np.mean(np.exp(2j * np.pi * q * pts[:, 0]))))
            got = control_character(OrbitSample(pts, 0.0, 64), q)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), q


class TestStarDiscrepancy:
    def test_single_midpoint(self):
        assert star_discrepancy_1d(sample_1d([0.5])) == pytest.approx(0.5)

    def test_symmetric_pair(self):
        assert star_discrepancy_1d(sample_1d([0.25, 0.75])) == pytest.approx(0.25)

    def test_van_der_corput_low_discrepancy(self):
        pts = van_der_corput(10000)
        assert star_discrepancy_1d(sample_1d(pts)) < 0.002

    @pytest.mark.parametrize("n", [1, 7, 20, 999, 10000])
    def test_running_rows_end_at_the_whole_sample(self, n):
        pts = np.random.default_rng(n).random(n)
        s = sample_1d(pts)
        rows = running_discrepancy(s)
        checkpoints = [max(1, n * i // 20) for i in range(1, 21)]
        assert DISCREPANCY_CHECKPOINTS == 20 and [m for m, _ in rows] == checkpoints
        for m, disc in rows:
            assert disc == star_discrepancy_1d(sample_1d(pts[:m]))
        # bit for bit: the report reads D*_N from the last row
        assert rows[-1] == (n, star_discrepancy_1d(s))

    @pytest.mark.parametrize("n", [5, 333, 4000])
    def test_running_rows_with_ties(self, n):
        # points on a grid of 16, so each merge of sorted runs meets ties
        pts = np.random.default_rng(n).integers(0, 16, n) / 16
        rows = running_discrepancy(sample_1d(pts))
        assert rows == [(m, star_discrepancy_1d(sample_1d(pts[:m]))) for m, _ in rows]

    @pytest.mark.parametrize(
        "n, grid", [(1, 0), (7, 0), (19, 0), (19, 4), (20, 0), (1001, 0), (4007, 16), (50_000, 0)]
    )
    def test_running_rows_match_the_merging_loop(self, n, grid):
        # grid > 0 draws points from a grid of that many, so prefixes meet ties;
        # n < 20 repeats checkpoints, and n not divisible by 20 gives uneven ones
        rng = np.random.default_rng(1000 + n)
        pts = rng.integers(0, grid, n) / grid if grid else rng.random(n)
        rows = running_discrepancy(sample_1d(pts))
        old = reference_output.running_discrepancy(sample_1d(pts))
        assert [m for m, _ in rows] == [m for m, _ in old]
        assert [np.float64(d).tobytes() for _, d in rows] == [np.float64(d).tobytes() for _, d in old]

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2 * fractal._SCRATCH_BLOCK + 7])
    @pytest.mark.parametrize("grid", [0, 16])
    def test_blocks_match_the_one_shot_formula(self, offset, grid):
        # the terms run a block at a time; the value is the whole formula's,
        # bit for bit, whichever block holds the worst term
        n = fractal._SCRATCH_BLOCK + offset
        rng = np.random.default_rng(n + grid)
        xs = np.sort(rng.integers(0, grid, n) / grid if grid else rng.random(n))
        idx = np.arange(1, n + 1)
        want = float(np.max(np.maximum(idx / n - xs, xs - (idx - 1) / n)))
        got = stats._sorted_star_discrepancy(xs)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # midpoints, each term 1/(2n), with one point moved by 0.4/n: the
        # worst term, x - (i - 1)/n (up) or i/n - x (down), sits in the
        # first, a middle or the last block
        for j in (0, n // 2, n - 1):
            for shift in (0.4 / n, -0.4 / n):
                x = (idx - 0.5) / n
                x[j] += shift
                want = float(np.max(np.maximum(idx / n - x, x - (idx - 1) / n)))
                assert stats._sorted_star_discrepancy(x) == want == pytest.approx(0.9 / n)

    def test_running_rows_check_the_sample(self):
        with pytest.raises(ValueError, match="exceeds 2\\^-32"):
            running_discrepancy(OrbitSample(np.full((4, 1), 0.3), 1e-3, 64))
        with pytest.raises(ValueError, match="d = 1 only"):
            running_discrepancy(OrbitSample(np.full((4, 2), 0.3), 0.0, 64))

    def test_multidim_rejected(self):
        s = OrbitSample(np.zeros((4, 2)) + 0.3, 0.0, 64)
        with pytest.raises(ValueError):
            star_discrepancy_1d(s)

    def test_koksma_consistency(self):
        # |S_N(k)| <= 2 pi |k| D* on generated samples
        for seed in range(5):
            pts = np.random.default_rng(seed).random(2000)
            s = sample_1d(pts)
            disc = star_discrepancy_1d(s)
            ws = weyl_sums(s, 6)
            for (k,), v in ws.items():
                assert v <= 2 * math.pi * abs(k) * disc + 1e-12


class TestDigits:
    def test_one_seventh_base_ten(self):
        got = extract_digits(Scalar.rational(F(1, 7), B), 10, 6)
        assert got == [1, 4, 2, 8, 5, 7]

    def test_d_adic_rejected(self):
        # 1/3 terminates in base 3; rejection per the module contract
        with pytest.raises(ValueError):
            extract_digits(Scalar.rational(F(1, 3), B), 3, 10)

    def test_terminating_in_base_two(self):
        with pytest.raises(ValueError):
            extract_digits(Scalar.rational(F(5, 16), B), 2, 10)

    def test_non_terminating_rational_allowed(self):
        digits = extract_digits(Scalar.rational(F(1, 7), B), 3, 30)
        assert len(digits) == 30 and all(0 <= d < 3 for d in digits)

    def test_irrational_against_mpmath(self):
        s = Scalar(B, (F(0), F(1)))  # sqrt2
        got = extract_digits(s, 10, 40)
        with mpmath.workdps(60):
            frac = mpmath.sqrt(2) - 1
            want = [int(mpmath.floor(frac * 10 ** (i + 1))) % 10 for i in range(40)]
        assert got == want

    def test_block_freqs_sum_to_one(self):
        freqs = digit_block_freqs(Scalar.rational(F(1, 7), B), 10, 120, 2)
        for length in (1, 2):
            total = sum(v for k, v in freqs.items() if len(k) == length)
            assert total == pytest.approx(1.0)

    def test_block_deviation_helper(self):
        freqs = {(0,): 0.5, (1,): 0.5}
        assert block_table(freqs, 2, 1)[1][1] == pytest.approx(0.0)
        # base 3 digits without a 2: every block holding a 2 is absent
        for digits, base, max_len in (([0, 1] * 4, 2, 3), ([0, 1, 1, 0, 0, 0, 1], 3, 2), ([2], 3, 1)):
            freqs = block_frequencies(digits, max_len)
            rows, worst = block_table(freqs, base, max_len)
            blocks = [b for length in range(1, max_len + 1) for b in all_blocks(base, length)]
            assert [row[0] for row in rows] == blocks
            for block, observed, expected, deviation in rows:
                assert observed == freqs.get(block, 0.0)
                assert expected == 1 / base ** len(block)
                assert deviation == abs(observed - expected)
            per_length = {
                length: max(row[3] for row in rows if len(row[0]) == length)
                for length in range(1, max_len + 1)
            }
            assert worst == per_length
        assert block_table({(0,): 1.0}, 3, 1)[1] == {1: 1 - 1 / 3}
        # blocks.csv order: the first digit varies fastest
        assert list(all_blocks(2, 2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_digits_match_exact_orbit(self):
        # cross-module consistency: digits vs floor(D * frac(D^m x)) on the
        # exact trajectory of the times-D walk
        x = Scalar(B, (F(1, 7), F(2, 3)))
        base = 3
        n = 200
        digits = extract_digits(x, base, n)
        endo = AffineEndo(IntMatrix.scalar(base), (Scalar.rational(0, B),))
        traj = walk_trajectory([endo], TorusPoint([x]), [1] * (n - 1))
        points = [TorusPoint([x]).reduced()] + [p for p in traj]
        for m in range(n):
            frac = fractional_part(points[m].coords[0], 64)
            assert digits[m] == int(frac * base)


def window_loop_frequencies(digits, max_len):
    """block_frequencies as first written: one dict.get per window."""
    count = len(digits)
    freqs = {}
    for length in range(1, max_len + 1):
        windows = count - length + 1
        counts = {}
        for i in range(windows):
            block = tuple(digits[i : i + length])
            counts[block] = counts.get(block, 0) + 1
        for block, c in counts.items():
            freqs[block] = c / windows
    return freqs


class TestBlockFrequencies:
    """block_frequencies against the window loop: same keys in the same
    order, same float values."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.lists(st.integers(0, 4), min_size=1, max_size=400))
    def test_agrees_with_the_window_loop(self, data, digits):
        max_len = data.draw(st.integers(1, min(len(digits), 6)))
        for given_digits in (digits, np.array(digits)):
            got = block_frequencies(given_digits, max_len)
            want = window_loop_frequencies(given_digits, max_len)
            assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize(
        "dtype, low, high",
        [(np.uint8, 0, 3), (np.uint8, 250, 256), (np.int8, -100, 101), (np.int16, -30000, 30001),
         (np.uint32, 7, 12)],
    )
    def test_integer_arrays_read_in_place(self, dtype, low, high):
        # digits of any integer dtype, whose range may overflow the dtype
        # itself, count as the same digits in a list
        digits = np.random.default_rng(high).integers(low, high, 3000, dtype=dtype)
        digits[:2] = low, high - 1
        got = block_frequencies(digits, 3)
        assert list(got.items()) == list(block_frequencies(digits.tolist(), 3).items())
        assert list(got.items()) == list(window_loop_frequencies(digits.tolist(), 3).items())

    @pytest.mark.parametrize("digits", [[2], [0, 1, 0, 0, 1], list(range(7))])
    def test_max_len_equal_to_the_length(self, digits):
        for given_digits in (digits, np.array(digits)):
            got = block_frequencies(given_digits, len(given_digits))
            want = window_loop_frequencies(given_digits, len(given_digits))
            assert list(got.items()) == list(want.items())
            assert got[tuple(digits)] == 1.0

    @pytest.mark.parametrize("digits", [[2, 0, 2, 2, 1, 0, 0, 2, 1], [-3, 5, 5, -3, 0, 7, 5, -3]])
    def test_unique_counting_agrees(self, monkeypatch, digits):
        # codes needing more bins than _BINCOUNT_MAX are counted by np.unique
        want = block_frequencies(digits, 4)
        monkeypatch.setattr(stats, "_BINCOUNT_MAX", 1)
        assert list(block_frequencies(digits, 4).items()) == list(want.items())
        assert list(want.items()) == list(window_loop_frequencies(digits, 4).items())

    @pytest.mark.parametrize(
        "radix, max_len, size",
        [
            (3, 4, 3 * fractal._SCRATCH_BLOCK + 7),  # one byte per digit and per window
            (41, 3, 2 * fractal._SCRATCH_BLOCK + 3),  # the window index widens to 4 bytes
            (200, 2, 3 * fractal._SCRATCH_BLOCK + 1),  # blocks of `bins` windows, above one block
        ],
    )
    def test_blocks_agree_with_the_window_loop(self, radix, max_len, size):
        digits = (np.random.default_rng(radix).integers(0, radix, size) - radix // 3).tolist()
        # a long run of one digit puts first occurrences in later blocks
        digits[fractal._SCRATCH_BLOCK - 2 : 2 * fractal._SCRATCH_BLOCK] = [digits[0]] * (
            fractal._SCRATCH_BLOCK + 2
        )
        got = block_frequencies(digits, max_len)
        assert list(got.items()) == list(window_loop_frequencies(digits, max_len).items())

    def test_lengths_out_of_range_rejected(self):
        for max_len in (0, 4):
            with pytest.raises(ValueError, match="max_len"):
                block_frequencies([1, 2, 3], max_len)


class TestSubsequences:
    def test_trivial_modulus(self):
        pts = np.random.default_rng(3).random(1000)
        report = subsequence_compare(sample_1d(pts), 1, 4)
        assert report.max_deviation == 0.0

    def test_iid_classes_agree(self):
        pts = np.random.default_rng(11).random(100000)
        report = subsequence_compare(sample_1d(pts), 3, 4)
        assert report.max_deviation < 0.03

    def test_kronecker_sequence_classes(self):
        # x_n = n*sqrt2 mod 1: both parity classes equidistribute
        n = 10000
        alpha = math.sqrt(2)
        pts = (np.arange(1, n + 1) * alpha) % 1.0
        report = subsequence_compare(sample_1d(pts), 2, 4)
        assert all(v < 0.02 for cls in report.classes for v in cls.values())


class TestCompareToFourier:
    def test_uniform_against_haar(self):
        pts = np.random.default_rng(17).random(100000)
        dev = fourier_table(character_means(sample_1d(pts), 8), CoefficientFunction.haar())[1]
        ws = weyl_sums(sample_1d(pts), 8)
        assert dev == pytest.approx(max(ws.values()), abs=1e-12)

    def test_constant_orbit_vs_point_mass(self):
        pts = np.full(500, 0.5)
        law = DiscreteMeasure.point_mass(F(1, 2)).coefficients()
        assert fourier_table(character_means(sample_1d(pts), 6), law)[1] < 1e-10

    @pytest.mark.parametrize("atom", [F(0), F(1, 3), F(2, 5)])
    def test_table_rows_and_max(self, atom):
        pts = np.random.default_rng(atom.denominator).random(3000)
        means = character_means(sample_1d(pts), 5)
        law = DiscreteMeasure.point_mass(atom).coefficients()
        rows, worst = fourier_table(means, law)
        assert [row[0] for row in rows] == [k for k in range(-5, 6) if k]
        for k, predicted, empirical, diff in rows:
            assert predicted == law(k).value and empirical == means[(k,)]
            assert diff == abs(empirical - predicted)
        assert worst == max(row[3] for row in rows)

    def test_eta_chain_empirical_vs_stationary(self):
        from toruswalk.chains import build_eta_chain

        eta = build_eta_chain(3, [Scalar.rational(0, B), Scalar.rational(F(1, 2), B)])
        sim = eta.walk(fractal.walk_letter_stream(eta.probabilities, np.random.default_rng(29), 100000))
        pts = np.array([float(eta.states[i]) for i in sim])
        means = character_means(sample_1d(pts), 8)
        dev = fourier_table(means, eta.stationary_measure().coefficients())[1]
        assert dev < 0.02


class TestOrbitSampleValidation:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            OrbitSample(np.array([1.0]), 0.0, 64)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_values_refused(self, bad):
        # a NaN coordinate fails every comparison, and would turn the
        # discrepancy and the Weyl sums into nan
        with pytest.raises(ValueError, match=r"^coordinates must lie in \[0, 1\)$"):
            OrbitSample(np.array([0.1, bad, 0.5]), 1e-20, None)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OrbitSample(np.empty((0,)), 0.0, 64)
