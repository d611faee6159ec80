"""Differential tests: the block orbit engine against the step-by-step loops.

reference_orbits.py keeps the original O(N^2) loops.  The engine must give
points within the sum of both certified bounds, bounds no larger than the
loops', identical digits, and raise exactly where the loops raise.
"""

import contextlib
import gc
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_orbits as ref
from toruswalk import cli, exactcore, fractal
from toruswalk.exactcore import (
    IntMatrix,
    IrrationalBasis,
    NearIntegerError,
    Scalar,
    TorusPoint,
    commute,
    is_expanding,
)
from toruswalk.fractal import (
    AffineEndo,
    AffineIFS,
    PrecisionExceededError,
    _orbit_error_bound,
    code_prefix_fixed,
    digits_from_fixed,
    walk_orbit_fixed,
)

B = IrrationalBasis(("sqrt2", "sqrt3"))

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=12)
scalars = st.builds(lambda r, a, b: Scalar(B, (r, a, b)), fractions, fractions, fractions)
# lengths below one plain-loop leaf (320 bits of amplification) and far above
lengths = st.one_of(st.integers(0, 40), st.integers(600, 2500))


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return "raised", (type(exc), str(exc))


def torus_gap(a: np.ndarray, b: np.ndarray) -> float:
    gap = np.abs(a - b) % 1.0
    return float(np.max(np.minimum(gap, 1.0 - gap), initial=0.0))


def assert_walks_agree(endos, x0, letters, precision_bits=None):
    new = outcome(walk_orbit_fixed, endos, x0, letters, precision_bits=precision_bits)
    old = outcome(ref.walk_orbit_fixed, endos, x0, letters, precision_bits=precision_bits)
    assert new[0] == old[0]
    if new[0] == "raised":
        assert new[1] == old[1]
        return
    new, old = new[1], old[1]
    assert new.precision_bits == old.precision_bits
    assert new.error_bound <= old.error_bound
    assert torus_gap(new.points, old.points) <= new.error_bound + old.error_bound


@st.composite
def scalar_family(draw):
    """Commuting expanding maps x -> D_i x + alpha_i on the circle."""
    k = draw(st.integers(1, 3))
    ds = draw(st.lists(st.sampled_from([-5, -3, -2, 2, 3, 4, 5]), min_size=k, max_size=k))
    return [AffineEndo(IntMatrix.scalar(d), (draw(scalars),)) for d in ds]


@st.composite
def rotation_family(draw):
    """Rotations x -> x + alpha_i: amplification 1."""
    return [AffineEndo(IntMatrix.identity(1), (draw(scalars),)) for _ in range(draw(st.integers(1, 3)))]


@st.composite
def mixed_family(draw):
    """A rotation next to an expanding map: the rotation's offsets pile up in
    the block maps instead of being amplified away."""
    d = draw(st.sampled_from([-3, -2, 2, 3]))
    return [
        AffineEndo(IntMatrix.identity(1), (draw(scalars),)),
        AffineEndo(IntMatrix.scalar(d), (draw(scalars),)),
    ]


@st.composite
def matrix_family(draw):
    """Commuting expanding 2x2 maps: A and A + cI for an expanding A."""
    rows = draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2)
    )
    c = draw(st.integers(-2, 2))
    base = IntMatrix.from_rows(rows)
    shifted = IntMatrix.from_rows(
        [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    )
    for m in (base, shifted):
        assume(is_expanding(m))
    assert commute(base, shifted)
    return [AffineEndo(m, (draw(scalars), draw(scalars))) for m in (base, shifted)]


@st.composite
def matrix_family_3d(draw):
    """Commuting expanding 3x3 maps: A and A + cI for an expanding A."""
    diagonal = draw(st.sampled_from([-7, -6, 6, 7]))
    rows = [
        [draw(st.integers(-2, 2)) + diagonal * (i == j) for j in range(3)] for i in range(3)
    ]
    c = draw(st.integers(-1, 1))
    base = IntMatrix.from_rows(rows)
    shifted = IntMatrix.from_rows(
        [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    )
    for m in (base, shifted):
        assume(is_expanding(m))
    assert commute(base, shifted)
    return [AffineEndo(m, tuple(draw(scalars) for _ in range(3))) for m in (base, shifted)]


def letters_for(draw, endos, n):
    return draw(st.lists(st.integers(1, len(endos)), min_size=n, max_size=n))


class TestWalkOrbit:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.one_of(scalar_family(), mixed_family()), lengths)
    def test_one_dimensional(self, data, endos, n):
        letters = letters_for(data.draw, endos, n)
        assert_walks_agree(endos, TorusPoint([data.draw(scalars)]), letters)

    @settings(max_examples=25, deadline=None)
    @given(st.data(), matrix_family(), lengths)
    def test_two_dimensional(self, data, endos, n):
        letters = letters_for(data.draw, endos, n)
        x0 = TorusPoint([data.draw(scalars), data.draw(scalars)])
        assert_walks_agree(endos, x0, letters)

    @settings(max_examples=15, deadline=None)
    @given(st.data(), matrix_family_3d(), lengths)
    def test_three_dimensional(self, data, endos, n):
        # d >= 3 runs the generic d-dimensional loop and block maps
        letters = letters_for(data.draw, endos, n)
        x0 = TorusPoint([data.draw(scalars) for _ in range(3)])
        assert_walks_agree(endos, x0, letters)

    @settings(max_examples=25, deadline=None)
    @given(st.data(), rotation_family(), st.integers(0, 6000))
    def test_rotation(self, data, endos, n):
        # amplification 1: the whole orbit is one plain loop at small precision
        letters = letters_for(data.draw, endos, n)
        assert_walks_agree(endos, TorusPoint([data.draw(scalars)]), letters)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), scalar_family(), st.integers(200, 1500), st.integers(-40, 40))
    def test_raises_where_the_loop_raises(self, data, endos, n, slack):
        # explicit precisions around the point where the budget runs out
        letters = letters_for(data.draw, endos, n)
        amp = sum(math.log2(abs(e.linear.rows[0][0])) for e in endos) / len(endos)
        precision = max(64, int(n * amp) + 33 + slack)
        assert_walks_agree(endos, TorusPoint([data.draw(scalars)]), letters, precision)

    def test_precision_64_raises_like_the_loop(self):
        endos = [
            AffineEndo(IntMatrix.scalar(2), (Scalar(B, (Fraction(0), Fraction(0), Fraction(0))),)),
            AffineEndo(IntMatrix.scalar(3), (Scalar(B, (Fraction(0), Fraction(1), Fraction(0))),)),
        ]
        letters = np.random.default_rng(3).integers(1, 3, size=4000)
        x0 = TorusPoint([Scalar.rational(Fraction(1, 7), B)])
        with pytest.raises(PrecisionExceededError) as new:
            walk_orbit_fixed(endos, x0, letters, precision_bits=64)
        with pytest.raises(PrecisionExceededError) as old:
            ref.walk_orbit_fixed(endos, x0, letters, precision_bits=64)
        assert str(new.value) == str(old.value)

    def test_precision_zero_raises_like_the_loop(self):
        # only None asks for the automatic budget, in the loop as in the engine
        endos = [AffineEndo(IntMatrix.scalar(2), (Scalar.rational(0, B),))] * 2
        x0 = TorusPoint([Scalar.rational(0, B)])
        with pytest.raises(ValueError, match="at least 64 bits"):
            ref.walk_orbit_fixed(endos, x0, [1] * 100, precision_bits=0)
        assert_walks_agree(endos, x0, [1] * 100, precision_bits=0)

    @pytest.mark.parametrize("bits", [0, 63])
    def test_precision_below_64_rejected(self, bits):
        # only None asks for the automatic budget; 0 is a precision like any other
        endo = AffineEndo(IntMatrix.scalar(2), (Scalar.rational(0, B),))
        with pytest.raises(ValueError, match="at least 64 bits"):
            walk_orbit_fixed([endo] * 2, TorusPoint([Scalar.rational(0, B)]), [1] * 100, bits)

    def test_letters_out_of_range_rejected(self):
        endo = AffineEndo(IntMatrix.scalar(2), (Scalar.rational(0, B),))
        with pytest.raises(ValueError, match="letters"):
            walk_orbit_fixed([endo], TorusPoint([Scalar.rational(0, B)]), [1, 2])


def replayed_step(amps, letters, err, offset_errs, limit):
    """The budget's step, one step at a time: the first step whose error
    reaches the limit, or the word's length."""
    for step, a in enumerate(letters, 1):
        err = err * amps[a] + offset_errs[a]
        if err >= limit:
            return step
    return len(letters)


class TestExhaustedStep:
    """The step that the halving descent names against the step-by-step
    replay of the recursion's error bookkeeping."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.data(),
        st.lists(st.sampled_from([1, 1, 2, 3, 5, 7]), min_size=1, max_size=4),
        st.integers(0, 700),
        st.integers(1, 50),
    )
    def test_named_step_is_the_replays(self, data, amps, n, err):
        letters = data.draw(st.lists(st.integers(0, len(amps) - 1), min_size=n, max_size=n))
        letters = np.array(letters, np.int8)
        offset_errs = data.draw(st.lists(st.integers(1, 9), min_size=len(amps), max_size=len(amps)))
        # limits from below the entry error to past the end of the word, and
        # limits met exactly at some step
        errs = [err]
        for a in letters.tolist():
            errs.append(errs[-1] * amps[a] + offset_errs[a])
        limit = data.draw(st.one_of(st.integers(1, 2 * errs[-1] + 2), st.sampled_from(errs)))
        assert fractal._exhausted_step(amps, letters, err, offset_errs, limit) == replayed_step(
            amps, letters.tolist(), err, offset_errs, limit
        )

    @settings(max_examples=20, deadline=None)
    @given(st.data(), matrix_family(), st.integers(70, 400), st.integers(-20, 20))
    def test_matrix_walk_raises_where_the_loop_raises(self, data, endos, n, slack):
        # the 2 x 2 amplifications are max row sums; explicit precisions put
        # the exhausted step anywhere in the word
        letters = letters_for(data.draw, endos, n)
        amp = max(math.log2(fractal._norm(e.linear.rows)) for e in endos)
        precision = max(64, int(n * amp * data.draw(st.floats(0.3, 1.0))) + 33 + slack)
        x0 = TorusPoint([data.draw(scalars), data.draw(scalars)])
        assert_walks_agree(endos, x0, letters, precision)


def test_rotation_budget_counts_every_block():
    # amplification 1: the budget is the letter counts, taken a block at a time
    letters = np.random.default_rng(9).integers(0, 3, 3 * fractal._SCRATCH_BLOCK + 7).astype(np.int8)
    growth, sums = fractal._error_budget([1, 1, 1], letters)
    assert growth == 1 and sums == [int(np.count_nonzero(letters == k)) for k in range(3)]


class TestAmplificationBits:
    """_amp_bits from the checkpoints and masks of _prefix_counts against
    the letter counts of every prefix: the same float, bit for bit."""

    @pytest.mark.parametrize(
        "n", [1, 63, 64, 65, 1000, fractal._SCRATCH_BLOCK, fractal._SCRATCH_BLOCK + 70, 40_001]
    )
    def test_counts_of_every_kind_of_range(self, n):
        rng = np.random.default_rng(n)
        letters = rng.integers(0, 4, n).astype(np.int8)
        mats = [1, 2, 3, 5]  # letter 0 amplifies by nothing and is not counted
        run = fractal._Orbit(mats, [(0,), (1,), (0,), (1,)], letters, 200, fractal._walk_leaf)
        counts = [np.concatenate(([0], np.cumsum(letters == k))) for k in range(4)]
        ends = {0, n, n - 1, 64 * (n // 64)} | {int(e) for e in rng.integers(0, n + 1, 60)}
        for lo in ends:
            for hi in ends:
                if lo <= hi:
                    want = sum(
                        math.log2(m) * int(c[hi] - c[lo]) for m, c in zip(mats, counts) if m > 1
                    )
                    assert fractal._amp_bits(run, lo, hi) == want, (lo, hi)


@st.composite
def cantor_like(draw):
    d = draw(st.sampled_from([-3, -2, 2, 3, 4]))
    k = draw(st.integers(1, 3))
    exponents = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    translations = [[draw(scalars)] for _ in range(k)]
    return AffineIFS.create(d, exponents, translations)


class TestCodePrefix:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), cantor_like(), lengths, st.integers(64, 1024))
    def test_agrees_with_the_loop(self, data, ifs, n, bits):
        word = data.draw(st.lists(st.integers(1, ifs.alphabet), min_size=n, max_size=n))
        value, err = code_prefix_fixed(ifs, word, bits)
        old_value, old_err = ref.code_prefix_fixed(ifs, word, bits)
        assert abs(value - old_value) <= err + old_err
        assert err <= old_err

    @settings(max_examples=20, deadline=None)
    @given(cantor_like(), st.integers(1, 3000), st.integers(0, 2**32), st.integers(64, 4096))
    def test_newton_division_gives_the_floor_division(self, ifs, n, seed, bits):
        # _divmod's Newton path, forced on from 64 bits, against plain divmod
        word = np.random.default_rng(seed).integers(1, ifs.alphabet + 1, n)
        expected = code_prefix_fixed(ifs, word, bits)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactcore, "DIVMOD_NEWTON_BITS", 64)
            assert code_prefix_fixed(ifs, word, bits) == expected


def value_for(draw, base, count):
    bits = math.ceil(count * math.log2(base)) + 96
    fixed, err = draw(scalars).fixed_point(bits)
    return fixed, err, bits


class TestDigits:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([2, 3, 5, 10]), lengths)
    def test_agrees_with_the_loop(self, data, base, count):
        fixed, err, bits = value_for(data.draw, base, count)
        new = outcome(digits_from_fixed, fixed, err, bits, base, count)
        old = outcome(ref.digits_from_fixed, fixed, err, bits, base, count)
        if count == 0:  # the loop certifies no digit; an empty sample is refused
            assert old[0] == "ok" and old[1][0] == []
            assert new == ("raised", (ValueError, "points must be a nonempty (N, d) array"))
            return
        assert new[0] == old[0]
        if new[0] == "raised":
            assert new[1] == old[1]
            return
        (digits, sample), (old_digits, old_points) = new[1], old[1]
        assert digits.tolist() == old_digits
        assert sample.precision_bits == bits
        assert sample.error_bound == _orbit_error_bound(max(1, err) * base**count, bits)
        assert torus_gap(sample.points[:, 0], old_points) <= 2 * sample.error_bound

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 10]),
        st.integers(300, 2000),
        st.floats(0.05, 0.999),
        st.integers(1, 50),
        st.one_of(st.integers(1, 4), st.integers(2**20, 2**40)),
        st.sampled_from([-1, 0, 1]),
    )
    def test_near_integer_values_decided_like_the_loop(self, base, count, where, c, err, side):
        """A value placed within (side -1), at (0) or just outside (1) the
        error of a digit boundary at step m: either both raise at the same
        digit, or both certify the same digits."""
        bits = math.ceil(count * math.log2(base)) + 96
        m = int(where * count)
        power = base ** m
        # fixed * D^m = c * 2^bits + r (mod 2^bits) with r about err * D^m
        target = c * (1 << bits) + max(0, err + side) * power
        fixed = -(-target // power)
        new = outcome(digits_from_fixed, fixed, err, bits, base, count)
        old = outcome(ref.digits_from_fixed, fixed, err, bits, base, count)
        assert new[0] == old[0]
        if new[0] == "raised":
            assert new[1] == old[1]
        else:
            assert new[1][0].tolist() == old[1][0]

    @pytest.mark.parametrize("base", [2, 3, 10, 256, 257, 2**16 + 1, 2**40, 2**64, 2**64 + 1])
    def test_digits_are_the_narrow_array(self, base):
        # the array the engine fills, one byte per digit up to base 256
        count = 50
        bits = math.ceil(count * math.log2(base)) + 96
        fixed = random.Random(base).getrandbits(bits)
        digits, _ = digits_from_fixed(fixed, 1, bits, base, count)
        assert isinstance(digits, np.ndarray)
        assert digits.dtype == np.min_scalar_type(base - 1) and digits.shape == (count,)
        assert digits.tolist() == ref.digits_from_fixed(fixed, 1, bits, base, count)[0]

    @pytest.mark.parametrize("bits", [0, 40, 52, 53, 63])
    def test_precision_below_64_rejected(self, bits):
        # below 53 bits the points' read-back used to fail on a negative shift
        with pytest.raises(ValueError, match=f"^precision must be at least 64 bits, got {bits}$"):
            digits_from_fixed(123456789, 1, bits, 3, 5)

    def test_value_within_error_of_boundary_raises(self):
        base, count, m = 3, 1000, 400
        bits = math.ceil(count * math.log2(base)) + 96
        fixed = -(-(5 << bits) // base ** m)  # fixed * 3^400 = 5 * 2^bits + r, r < 3^400
        with pytest.raises(NearIntegerError) as new:
            digits_from_fixed(fixed, 1, bits, base, count)
        with pytest.raises(NearIntegerError) as old:
            ref.digits_from_fixed(fixed, 1, bits, base, count)
        assert str(new.value) == str(old.value)


class TestRationalCase:
    def test_irrational_t1_alpha_orbit_agrees_with_the_loop(self, tmp_path, monkeypatch):
        # rational differences, irrational t_1: the alpha orbit runs in the engine
        cfg = {
            "kind": "rational-case",
            "irrationals": ["sqrt2"],
            "D": 3,
            "t": ["1*sqrt2", "1*sqrt2 + 1/3"],
            "N": 3000,
            "K": 4,
            "seed": 5,
        }
        new = cli.run(cfg, tmp_path / "engine")
        monkeypatch.setattr(fractal, "walk_orbit_fixed", ref.walk_orbit_fixed)
        old = cli.run(cfg, tmp_path / "loop")
        assert new["precision_bits"] == old["precision_bits"]
        for k, v in old["results"]["weyl"].items():
            assert abs(float(new["results"]["weyl"][k]) - float(v)) <= 1e-12


def rows(m):
    """A block-map matrix as a tuple of rows; one-dimensional ones are ints."""
    return ((m,),) if isinstance(m, int) else m


class TestJump:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 2), st.integers(1, 3), st.integers(64, 400))
    def test_tracked_error_covers_truncated_state_and_offsets(self, data, d, k, p):
        """One truncation and one jump at q < p bits stay within the tracked
        ulps of the exact block applied at p bits."""
        entries = st.integers(-3, 3)
        mats = [
            tuple(tuple(data.draw(entries) for _ in range(d)) for _ in range(d)) for _ in range(k)
        ]
        if d == 1:  # one-dimensional maps are plain ints
            mats = [m[0][0] for m in mats]
        # offsets with many ones below the cut make reading them at q bits lose almost an ulp
        words = st.integers(0, (1 << p) - 1) | st.just((1 << p) - 1) | st.just((1 << (p - 1)) - 1)
        offsets = [tuple(data.draw(words) for _ in range(d)) for _ in range(k)]
        n = data.draw(st.integers(1, 150))
        word = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        letters = np.array(word, dtype=np.int8)
        state = [data.draw(words) for _ in range(d)]
        run = fractal._Orbit(mats, offsets, letters, p, fractal._walk_leaf)
        block = fractal._tree(mats, run.active, letters, 0, n)
        m, c = rows(block[0]), [None if x is None else rows(x) for x in block[1]]

        def dot(row, vec):
            return sum(x * y for x, y in zip(row, vec))

        exact = [
            (dot(row, state) + sum(dot(ck[i], off) for ck, off in zip(c, offsets) if ck)) % (1 << p)
            for i, row in enumerate(m)
        ]
        truncated, q, t, _ = fractal._truncate(state, p, 0, 0, data.draw(st.integers(53, p)))
        moved, t, _ = fractal._jump(run, block, truncated, q, t, 0)
        for got, want in zip(moved, exact):
            gap = (got * (1 << (p - q)) - want) % (1 << p)
            assert min(gap, (1 << p) - gap) <= t << (p - q)


def embed(m, size=3):
    """m as the top-left block of a size x size matrix that is the identity
    elsewhere: the generic d-dimensional loop then computes m's results."""
    d = len(m)
    return tuple(
        tuple(m[i][j] if i < d and j < d else int(i == j) for j in range(size))
        for i in range(size)
    )


def top_left(m, d):
    return tuple(tuple(row[:d]) for row in m[:d])


class TestKernels:
    """The written-out d = 1 and d = 2 kernels against the generic loop, run
    on their maps embedded in 3 x 3 matrices; results must be identical."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(1, 2), st.integers(1, 3))
    def test_block_map(self, data, d, k):
        entries = st.integers(-5, 5)
        mats = [
            tuple(tuple(data.draw(entries) for _ in range(d)) for _ in range(d)) for _ in range(k)
        ]
        if d == 1:
            mats = [m[0][0] for m in mats]
        active = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        n = data.draw(st.integers(1, 3 * fractal._MAP_LEAF_STEPS))
        word = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        letters = np.array(word, dtype=np.int8)
        m, c = fractal._tree(mats, active, letters, 0, n)
        generic_m, generic_c = fractal._tree(
            [embed(rows(x)) for x in mats], active, letters, 0, n
        )
        assert rows(m) == top_left(generic_m, d)
        assert [None if x is None else rows(x) for x in c] == [
            None if x is None else top_left(x, d) for x in generic_c
        ]
        # one dimension stays on plain ints, and the split tree is one plain loop
        assert (type(m) is int) == (d == 1)
        assert (m, c) == fractal._leaf_map(mats, active, letters, 0, n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-9, 9), st.integers(0, 5 * fractal._MAP_LEAF_STEPS), st.integers(0, 70))
    def test_single_inactive_letter_is_one_power(self, base, hi, lo):
        # the digit runs' map x -> D x: (D^(hi-lo), inactive) without a tree
        lo = min(lo, hi)
        letters = np.zeros(hi, dtype=np.int8)
        m, c = fractal._tree([base], [False], letters, lo, hi)
        assert type(m) is int and m == base ** (hi - lo)
        assert (m, c) == fractal._leaf_map([base], [False], letters, lo, hi) == (m, [None])

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 2), st.integers(1, 3), st.integers(64, 400))
    def test_walk_leaf(self, data, d, k, p):
        if data.draw(st.booleans()):  # signed permutations: words across chunks
            perms = [(1,)] if d == 1 else [(1, 0), (0, 1)]
            mats = [
                tuple(tuple(data.draw(st.sampled_from([1, -1])) * x for x in row) for row in perm)
                for perm in (data.draw(st.permutations(perms)) for _ in range(k))
            ]
            n_max = 2 * fractal._CHUNK_STEPS + 100
        else:  # a leaf amplifies by a few hundred bits at most
            entries = st.integers(-4, 4)
            mats = [
                tuple(tuple(data.draw(entries) for _ in range(d)) for _ in range(d))
                for _ in range(k)
            ]
            n_max = 120
        # zero offsets make letters inactive; full-width ones keep the top bits busy
        words = st.just(0) | st.integers(0, (1 << p) - 1) | st.integers(1 << (p - 1), (1 << p) - 1)
        offsets = [tuple(data.draw(words) for _ in range(d)) for _ in range(k)]
        n = data.draw(st.integers(1, n_max))
        word = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        letters = np.array(word, dtype=np.int8)
        q = data.draw(st.integers(53, p))
        state = [data.draw(st.integers(0, (1 << q) - 1)) for _ in range(d)]
        t = data.draw(st.integers(0, 1 << 20))
        plain = [m[0][0] for m in mats] if d == 1 else mats  # one dimension: plain ints
        run = fractal._Orbit(plain, offsets, letters, p, fractal._walk_leaf)
        generic = fractal._Orbit(
            [embed(x) for x in mats], [off + (0,) * (3 - d) for off in offsets], letters, p,
            fractal._walk_leaf,
        )
        fractal._walk_leaf(run, 0, n, state, q, t, 0)
        fractal._walk_leaf(generic, 0, n, state + [0] * (3 - d), q, t, 0)
        assert run.points.tobytes() == generic.points[:, :d].copy().tobytes()
        assert run.spread == generic.spread


@st.composite
def positive_family(draw):
    """Maps x -> D_i x + alpha_i with D_i >= 1, some with zero offsets
    (inactive letters): the engine takes its block maps from the error-budget
    tree."""
    k = draw(st.integers(1, 3))
    ds = draw(st.lists(st.sampled_from([1, 2, 3, 5, 7]), min_size=k, max_size=k))
    offsets = st.just(Scalar.rational(0, B)) | scalars
    return [AffineEndo(IntMatrix.scalar(d), (draw(offsets),)) for d in ds]


def assert_same_walk(endos, x0, letters, precision_bits=None):
    new = outcome(walk_orbit_fixed, endos, x0, letters, precision_bits=precision_bits)
    old = outcome(ref.walk_orbit_fixed, endos, x0, letters, precision_bits=precision_bits)
    assert new[0] == old[0]
    if new[0] == "raised":
        assert new[1] == old[1]
        return
    new, old = new[1], old[1]
    assert new.precision_bits == old.precision_bits
    assert new.error_bound == old.error_bound
    assert new.points.tobytes() == old.points.tobytes()


class TestSharedBudgetTree:
    """A one-dimensional walk with multipliers >= 1 takes the engine's block
    maps from its error-budget tree, and a rotation has no tree: the orbits,
    bounds and refusals must stay the step-by-step loop's."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.data(),
        st.one_of(positive_family(), scalar_family(), rotation_family()),
        st.integers(600, 3000),
        st.none() | st.integers(-40, 40),
    )
    def test_same_orbit_as_the_loop(self, data, endos, n, slack):
        letters = letters_for(data.draw, endos, n)
        precision = None
        if slack is not None:  # explicit precisions around where the budget runs out
            amp = sum(math.log2(abs(e.linear.rows[0][0])) for e in endos) / len(endos)
            precision = max(64, int(n * amp) + 33 + slack)
        assert_same_walk(endos, TorusPoint([data.draw(scalars)]), letters, precision)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), positive_family(), st.integers(600, 3000))
    def test_every_map_the_engine_uses_is_kept(self, data, endos, n):
        # with multipliers <= 7 the engine splits only ranges the tree splits
        letters = letters_for(data.draw, endos, n)
        requests = []
        map_of = fractal._map_of

        def spy(run, lo, hi):
            kept = (lo, hi) in run.kept
            block = map_of(run, lo, hi)
            assert block == fractal._tree(run.mats, run.active, run.letters, lo, hi)
            requests.append(kept)
            return block

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fractal, "_map_of", spy)
            walk_orbit_fixed(endos, TorusPoint([data.draw(scalars)]), letters)
        assert all(requests)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.one_of(positive_family(), rotation_family()), st.integers(0, 3000))
    def test_budget_integers_are_the_tree(self, data, endos, n):
        # letters of the alphabet that the word leaves out count as well
        letters = fractal._letter_indices(letters_for(data.draw, endos[:-1] or endos, n), len(endos))
        amps = [e.linear.rows[0][0] for e in endos]
        # zero offsets make letters inactive: the kept maps leave them out
        offsets = [(data.draw(st.sampled_from([0, 1, 3 << 60])),) for _ in endos]
        run = fractal._Orbit(amps, offsets, letters, 64, fractal._walk_leaf)
        budget = fractal._error_budget(amps, letters, run)
        assert budget == fractal._tree(amps, [True] * len(amps), letters, 0, n)
        for (lo, hi), block in run.kept.items():
            assert block == fractal._tree(amps, run.active, letters, lo, hi)


class TestOneTree:
    """The engine reads block maps and never composes while it solves: in one
    run no range longer than one plain-loop map is composed twice, and every
    map it jumps with is the fresh tree of its range."""

    @pytest.mark.parametrize(
        "matrices, n",
        [
            ([[[-3]], [[2]]], 3000),  # d = 1 with a negative multiplier: no shared tree
            ([[[3, 1], [1, 3]], [[4, 1], [1, 4]]], 3000),
            ([[[6, 1, 0], [0, 6, 1], [1, 0, 6]], [[7, 1, 0], [0, 7, 1], [1, 0, 7]]], 1500),
        ],
    )
    def test_each_range_composed_once(self, matrices, n):
        rng = np.random.default_rng(n + len(matrices[0]))
        d = len(matrices[0])
        offset = [Scalar(B, (Fraction(j + 1, 7), Fraction(1), Fraction(j))) for j in range(d)]
        endos = [AffineEndo(IntMatrix.from_rows(m), tuple(offset)) for m in matrices]
        letters = rng.integers(1, 3, size=n)
        x0 = TorusPoint([Scalar.rational(Fraction(1, 7), B)] * d)
        tree, map_of, jump = fractal._tree, fractal._map_of, fractal._jump
        composed, handed, jumped = [], {}, []

        def tree_spy(mats, active, letters, lo, hi, run=None):
            if hi - lo > fractal._MAP_LEAF_STEPS:
                composed.append((repr(mats), lo, hi))
            return tree(mats, active, letters, lo, hi, run)

        def map_of_spy(run, lo, hi):
            block = map_of(run, lo, hi)
            handed[id(block)] = run, lo, hi
            return block

        def jump_spy(run, block, *state):
            jumped.append(block)
            return jump(run, block, *state)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fractal, "_tree", tree_spy)
            mp.setattr(fractal, "_map_of", map_of_spy)
            mp.setattr(fractal, "_jump", jump_spy)
            orbit = walk_orbit_fixed(endos, x0, letters)
        assert len(composed) == len(set(composed))
        assert len(jumped) > 3
        for block in jumped:
            run, lo, hi = handed[id(block)]
            assert block == tree(run.mats, run.active, run.letters, lo, hi)
        old = ref.walk_orbit_fixed(endos, x0, letters)
        assert orbit.points.tobytes() == old.points.tobytes()


@contextlib.contextmanager
def thin_guard(bits):
    """Run the engine with few guard bits, so that its truncation error is
    visible, and collect the truncation error each run reports."""
    spreads = []
    run = fractal._run

    def spy(*args):
        result = run(*args)
        spreads.append(result.spread)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fractal, "_GUARD_BITS", bits)
        mp.setattr(fractal, "TRUNCATION_SLACK", 1.0)
        mp.setattr(fractal, "_run", spy)
        yield spreads


class TestTrackedTruncation:
    """The tracked truncation error must cover the real distance to the
    step-by-step loop, and digits must stay the loop's, even when so few guard
    bits remain that the points visibly move (by about 2^-20)."""

    @settings(max_examples=20, deadline=None)
    @given(st.data(), st.one_of(scalar_family(), matrix_family()), st.integers(600, 2500))
    def test_walk(self, data, endos, n):
        letters = letters_for(data.draw, endos, n)
        x0 = TorusPoint([data.draw(scalars) for _ in range(endos[0].dimension)])
        old = outcome(ref.walk_orbit_fixed, endos, x0, letters)
        assume(old[0] == "ok")
        with thin_guard(8) as spreads:
            new = walk_orbit_fixed(endos, x0, letters)
        assert torus_gap(new.points, old[1].points) <= spreads[-1] + 2.0 ** -53

    @settings(max_examples=20, deadline=None)
    @given(st.data(), st.one_of(rotation_family(), mixed_family()), st.integers(600, 6000))
    def test_walk_with_small_amplification(self, data, endos, n):
        # offsets read at few bits: their truncation dominates the error
        letters = letters_for(data.draw, endos, n)
        x0 = TorusPoint([data.draw(scalars)])
        old = ref.walk_orbit_fixed(endos, x0, letters)
        with thin_guard(44) as spreads:
            new = walk_orbit_fixed(endos, x0, letters)
        assert torus_gap(new.points, old.points) <= spreads[-1] + 2.0 ** -53

    @settings(max_examples=20, deadline=None)
    @given(st.data(), st.sampled_from([2, 3, 5, 10]), st.integers(600, 2500))
    def test_digits(self, data, base, count):
        fixed, err, bits = value_for(data.draw, base, count)
        old = outcome(ref.digits_from_fixed, fixed, err, bits, base, count)
        with thin_guard(0) as spreads:
            new = outcome(digits_from_fixed, fixed, err, bits, base, count)
        assert new[0] == old[0]
        if new[0] == "raised":
            assert new[1] == old[1]
            return
        (digits, sample), (old_digits, old_points) = new[1], old[1]
        assert digits.tolist() == old_digits
        assert torus_gap(sample.points[:, 0], old_points) <= spreads[-1] + 2.0 ** -53


SQRT2 = Scalar(B, (Fraction(0), Fraction(1), Fraction(0)))
SQRT3 = Scalar(B, (Fraction(0), Fraction(0), Fraction(1)))
ZERO = Scalar.rational(0, B)
# (matrices, offsets, N, precision): letter 1 has offset 0, which is read
# exactly at every precision, letter 2 an irrational one, read inexactly once
# truncated; the rotation's automatic precision leaves nothing to truncate
LEAF_FAMILIES = {
    "1d": ([[[2]], [[3]]], [[ZERO], [SQRT2]], 3000, None),
    "rotation": ([[[1]], [[1]]], [[ZERO], [SQRT2]], 3000, 400),
    "2d": ([[[3, 1], [1, 3]], [[4, 1], [1, 4]]], [[ZERO, ZERO], [SQRT2, SQRT3]], 1500, None),
    "3d": (
        [[[6, 1, 0], [0, 6, 1], [0, 0, 6]], [[7, 1, 0], [0, 7, 1], [0, 0, 7]]],
        [[ZERO, ZERO, ZERO], [SQRT2, SQRT3, SQRT2]],
        600,
        None,
    ),
}


class TestLeafBound:
    """The plain loop stores a chunk's points with one closed-form bound on
    their truncation error; at every chunk end it must cover the per-step
    recursion t <- amp_a t + inexact_a (reference_orbits.walk_leaf)."""

    @pytest.mark.parametrize("name", sorted(LEAF_FAMILIES))
    def test_bound_covers_the_step_recursion(self, monkeypatch, name):
        mats, offsets, n, precision = LEAF_FAMILIES[name]
        endos = [AffineEndo(IntMatrix.from_rows(m), tuple(off)) for m, off in zip(mats, offsets)]
        x0 = TorusPoint([Scalar.rational(Fraction(1, 7), B)] * len(offsets[0]))
        letters = np.random.default_rng(11).integers(1, 3, size=n)
        emit, leaf = fractal._emit, fractal._walk_leaf
        stored = {}

        def spy(run, lo, hi, out, t, q):
            stored.setdefault((lo, hi), []).append((out, q, t))
            emit(run, lo, hi, out, t, q)

        def both(run, lo, hi, state, q, t, e):
            ref.walk_leaf(run, lo, hi, state, q, t, e)
            leaf(run, lo, hi, state, q, t, e)

        monkeypatch.setattr(fractal, "_emit", spy)
        monkeypatch.setattr(fractal, "_walk_leaf", both)
        walk_orbit_fixed(endos, x0, letters, precision)
        assert sum(hi - lo for lo, hi in stored) == n
        assert any(t for (_, _, t), _ in stored.values())  # the runs truncate
        for (*old, step_t), (*new, bound) in stored.values():
            assert new == old
            assert bound >= step_t


class TestNoReferenceCycles:
    """Engine runs are freed by reference counting alone."""

    def test_walk_points_die_with_the_orbit(self):
        endos = [
            AffineEndo(IntMatrix.scalar(2), (Scalar.rational(0, B),)),
            AffineEndo(IntMatrix.scalar(3), (Scalar(B, (Fraction(0), Fraction(1), Fraction(0))),)),
        ]
        letters = np.random.default_rng(5).integers(1, 3, size=3000)
        gc.disable()
        try:
            orbit = walk_orbit_fixed(endos, TorusPoint([Scalar.rational(Fraction(1, 7), B)]), letters)
            points = weakref.ref(orbit.points)
            del orbit
            assert points() is None
        finally:
            gc.enable()

    def test_digit_points_die_when_dropped(self):
        x = Scalar(B, (Fraction(0), Fraction(2, 3), Fraction(0)))
        bits = math.ceil(3000 * math.log2(3)) + 96
        fixed, err = x.fixed_point(bits)
        gc.disable()
        try:
            digits, sample = digits_from_fixed(fixed, err, bits, 3, 3000)
            alive = [weakref.ref(sample), weakref.ref(sample.points)]
            del digits, sample
            assert all(r() is None for r in alive)
        finally:
            gc.enable()


def run_both(fixed, err, bits, base, count):
    """(lanes, loop, reruns, leaves): the outcomes of digits_from_fixed, with
    the truncation error its _run reports, and of the per-step oracle
    (reference_orbits.digits_run); reruns lists the (lo, hi, q) of every
    leaf that the lanes handed to the per-step loop, leaves the number of
    lanes of each _digit_lanes call."""
    spreads, reruns, leaves = [], [], []
    run, leaf, lanes = fractal._run, fractal._digit_leaf, fractal._digit_lanes

    def run_spy(*args):
        result = run(*args)
        spreads.append(result.spread)
        return result

    def leaf_spy(run, lo, hi, state, q, t, e):
        reruns.append((lo, hi, q))
        return leaf(run, lo, hi, state, q, t, e)

    def lanes_spy(run):
        leaves.append(len(run.leaves))
        return lanes(run)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fractal, "_run", run_spy)
        mp.setattr(fractal, "_digit_leaf", leaf_spy)
        mp.setattr(fractal, "_digit_lanes", lanes_spy)
        new = outcome(digits_from_fixed, fixed, err, bits, base, count)
    if new[0] == "ok":
        assert new[1][0].dtype == np.min_scalar_type(base - 1)
        new = ("ok", (*new[1], spreads[-1]))
    return new, outcome(ref.digits_run, fixed, err, bits, base, count), reruns, leaves


def assert_same_digits(new, old):
    assert new[0] == old[0]
    if new[0] == "raised":
        assert new[1] == old[1]
        return
    (digits, sample, spread), (old_digits, old_sample, old_spread) = new[1], old[1]
    assert digits.tolist() == old_digits
    assert sample.points.tobytes() == old_sample.points.tobytes()
    assert sample.error_bound == old_sample.error_bound
    assert sample.precision_bits == old_sample.precision_bits
    assert spread == old_spread


LANE_BASES = [2, 3, 10, 255, 256, 2**20, 2**64 + 13]


def lane_count(base, kind):
    """One step; the longest run that is a single leaf (320 bits of
    amplification); a prime count, a multiple of no mask period, over many
    leaves; 20k steps."""
    return {"one": 1, "leaf": int(320 / math.log2(base)), "prime": 997, "20k": 20_000}[kind]


def placed(base, count, m, side, upper=False, high=0, err=3):
    """(fixed, bits) of x = high / D^m + y with y the smallest (upper: the
    largest) value whose p-bit state s after step m lies within (side -1),
    at (0) or just outside (1) its error err * D^m of 0 (upper: of 1, where
    the loop's test s > mask - thr puts "at" one ulp lower)."""
    bits = math.ceil(count * math.log2(base)) + 96
    power = base**m
    if upper:
        return ((high << bits) - (err + side) * power - 1) // power, bits
    return -(-((high << bits) + (err + side) * power) // power), bits


def generic_high(base, m, seed):
    """A random c < D^m with c = 1 mod D: c / D^m keeps the orbit before
    step m away from integers."""
    return random.Random(seed).randrange(base**m) // base * base + 1


class TestDigitLanes:
    """The lanes of a digit run against the per-step loop on the same
    schedule: identical digits, point bytes, bounds, truncation error and
    exceptions."""

    @pytest.mark.parametrize("kind", ["one", "leaf", "prime", "20k"])
    @pytest.mark.parametrize("base", LANE_BASES)
    def test_matches_the_loop(self, base, kind):
        count = lane_count(base, kind)
        bits = math.ceil(count * math.log2(base)) + 96
        fixed = random.Random(count + base).getrandbits(bits)
        new, old, reruns, leaves = run_both(fixed, 7, bits, base, count)
        assert new[0] == "ok"
        assert_same_digits(new, old)
        assert len(leaves) == 1 and (leaves[0] == 1) == (kind in ("one", "leaf"))
        if base <= 2**63:
            assert reruns == []  # every lane cleared by the certificate
        else:  # the digits do not fit a head: every leaf runs the loop
            assert len(reruns) == leaves[0]

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("base", [2, 3, 10, 256])
    def test_lane_blocks_match_the_loop(self, monkeypatch, base, side):
        """The read-back of a few lanes at a time, some blocks holding the
        shortest lanes and one a failing lane: the same outcome as the loop."""
        monkeypatch.setattr(fractal, "_SCRATCH_BLOCK", 64)
        count = 40_000
        fixed, bits = placed(base, count, 30_000, side, high=generic_high(base, 30_000, side))
        new, old, reruns, leaves = run_both(fixed, 3, bits, base, count)
        assert leaves[0] > 64
        assert_same_digits(new, old)
        assert new[0] == ("raised" if side < 0 else "ok") and reruns

    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("base", [2, 3, 10, 256])
    def test_boundary_values(self, base, where, side, upper):
        """A state placed within, at or just outside its error of a digit
        boundary: the lane of that step (and, as the orbit then stays near
        the boundary, every later one) fails the certificate and reruns the
        loop, which restarts at p bits and raises or certifies as the oracle
        does."""
        count = 2000
        m = {"first": 3, "middle": count // 2, "last": count - 2}[where]
        fixed, bits = placed(base, count, m, side, upper, generic_high(base, m, m + side))
        new, old, reruns, _ = run_both(fixed, 3, bits, base, count)
        assert_same_digits(new, old)
        assert new[0] == ("raised" if side < 0 else "ok")
        if new[0] == "raised":
            assert new[1][1].startswith(f"digit {m} not certifiable")
        assert reruns and reruns[0][0] < m <= reruns[0][1]  # the lane of step m first
        lanes = {lo for lo, _, q in reruns if q < bits}  # restarts run at p bits
        if where == "last" or side < 0:
            assert len(lanes) == 1
        else:
            assert len(lanes) > 1 and reruns[-1][1] == count

    @pytest.mark.parametrize("fails", [True, False])
    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("base", [3, 5, 7])
    def test_certificate_edge(self, base, upper, fails):
        """One leaf at the full p bits (t = 0): the last state lies one ulp
        inside or one ulp outside the loop's threshold thr = err D^m, which
        is the lane's T_i and not a multiple of 2^(p - 53).  The point of a
        failing state is then T - 1 or 2^53 - T, which the certificate must
        still hand to the loop, to raise there."""
        count = m = 100
        err = 5
        bits = math.ceil(count * math.log2(base)) + 96  # below the leaf's own need: q = p
        thr = err * base**m
        step = 1 if fails else -1
        state = (1 << bits) - thr + step if upper else thr - step
        fixed = state * pow(base**m, -1, 1 << bits) % (1 << bits)
        new, old, reruns, leaves = run_both(fixed, err, bits, base, count)
        assert leaves == [1] and reruns == [(0, count, bits)]
        assert_same_digits(new, old)
        assert new[0] == ("raised" if fails else "ok")
        if fails:
            assert new[1][1].startswith(f"digit {m} not certifiable at {bits} bits")

    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_failing_lane_right_of_a_rerun_that_passed(self, base):
        """x D^m1 lies 1 / D^(m2 - m1) above an integer (far below 2^-53,
        far above its error) and x D^m2 within its error of one: the lane of
        step m1 reruns and passes, and the lane of step m2 raises."""
        count, m1, m2 = 2000, 500, 1500
        high = generic_high(base, m1, base) * base ** (m2 - m1) + 1
        fixed, bits = placed(base, count, m2, -1, high=high)
        new, old, reruns, _ = run_both(fixed, 3, bits, base, count)
        assert_same_digits(new, old)
        assert new[0] == "raised" and new[1][1].startswith(f"digit {m2} not")
        assert reruns[0][0] < m1 <= reruns[0][1] < m2  # reran and passed
        assert reruns[-1][0] < m2 <= reruns[-1][1]
        # with err = 2 that state lies at, not within, its error: every digit certified
        new, old, _, _ = run_both(fixed, 2, bits, base, count)
        assert new[0] == "ok"
        assert_same_digits(new, old)

    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.sampled_from([2, 3, 5, 10, 256]), st.integers(600, 2500))
    def test_thin_guard(self, data, base, count):
        """With so few guard bits that the truncation error shows, lanes
        fail the certificate; everything still matches, and thin_guard sees
        every digit run through _run."""
        fixed, err, bits = value_for(data.draw, base, count)
        with thin_guard(0) as spreads:
            new, old, _, _ = run_both(fixed, err, bits, base, count)
        assert_same_digits(new, old)
        if new[0] == "ok":
            assert spreads == [new[1][2]]
