"""Differential tests of exactcore's Newton square root and division.

`_sqrt_floor(n, p)` must equal `math.isqrt(n << 2p)` and `_divmod(a, b)`
must equal `divmod(a, b)` on every input, on each side of the crossovers
SQRT_NEWTON_BITS and DIVMOD_NEWTON_BITS; the Newton estimates must meet the
error bounds their docstrings derive; and an estimate that the exact fix-up
cannot mend must raise ExactCheckError, never return a value.  The largest
cases are checked by the defining inequalities (s^2 <= a < (s+1)^2, and
0 <= r < b), which need one product instead of a quadratic builtin.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruswalk import exactcore
from toruswalk.exactcore import (
    DIVMOD_NEWTON_BITS,
    SQRT_NEWTON_BITS,
    ExactCheckError,
    _divmod,
    _inverse_sqrt,
    _reciprocal,
    _sqrt_floor,
    resolve_evaluator,
)

SMALL_N = [2, 3, 5, 7, 10, 1000003]
# root sizes E = e + p on each side of the crossover, for n < 4 (e = 0)
CROSSOVER_P = [1, 64, SQRT_NEWTON_BITS - 1, SQRT_NEWTON_BITS, SQRT_NEWTON_BITS + 1, 3 * SQRT_NEWTON_BITS + 7]


@pytest.fixture
def newton_everywhere(monkeypatch):
    """Both helpers take the Newton path from 64 bits up."""
    monkeypatch.setattr(exactcore, "SQRT_NEWTON_BITS", 64)
    monkeypatch.setattr(exactcore, "DIVMOD_NEWTON_BITS", 64)


class TestSqrtFloor:
    @pytest.mark.parametrize("n", SMALL_N)
    @pytest.mark.parametrize("p", CROSSOVER_P)
    def test_small_n_across_the_crossover(self, n, p):
        assert _sqrt_floor(n, p) == math.isqrt(n << (2 * p))

    @pytest.mark.parametrize("crossover", [64, SQRT_NEWTON_BITS])
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 2**3000), p=st.integers(0, 6000))
    def test_random_against_isqrt(self, crossover, n, p):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactcore, "SQRT_NEWTON_BITS", crossover)
            assert _sqrt_floor(n, p) == math.isqrt(n << (2 * p))

    @pytest.mark.parametrize(
        "root", [1, 2, 3, 1000, 2**40 + 1, 3**4000, 7**9000 + 12345], ids=lambda r: f"{r.bit_length()}b"
    )
    @pytest.mark.parametrize("p", [0, 100, 5000])
    def test_perfect_squares_and_neighbours(self, newton_everywhere, root, p):
        # resolve_evaluator refuses squares, but the helper answers for them
        for n in (root * root - 1, root * root, root * root + 1, root * root + 2 * root):
            if n > 0:
                assert _sqrt_floor(n, p) == math.isqrt(n << (2 * p)), n

    def test_exact_roots_at_the_top_of_the_range(self, newton_everywhere):
        # n 4^p = (root 2^p)^2 exactly, and one below it
        root = random.Random(3).getrandbits(20_000) | 1 << 19_999
        assert _sqrt_floor(root * root, 4000) == root << 4000
        assert _sqrt_floor(root * root - 1, 4000) == (root << 4000) - 1

    def test_half_a_million_bits_against_isqrt(self):
        assert _sqrt_floor(1000003, 500_000) == math.isqrt(1000003 << 1_000_000)

    def test_a_million_bits_by_the_defining_inequality(self):
        a = 2 << 2_000_000
        s = _sqrt_floor(2, 1_000_000)
        assert s * s <= a < (s + 1) * (s + 1)

    @pytest.mark.parametrize("name, n", [("sqrt2", 2), ("sqrt1000003", 1000003)])
    @pytest.mark.parametrize("p", [8, SQRT_NEWTON_BITS + 8, 80_000])
    def test_sqrt_constants_are_the_floor(self, name, n, p):
        # Scalar.fixed_point reads these dyadic values; a value off by one
        # would still be within 2^-p, but no longer the builtin's
        assert resolve_evaluator(name)(p) == (math.isqrt(n << (2 * p)), p)

    def test_refuses_negative_arguments(self):
        with pytest.raises(ValueError):
            _sqrt_floor(-2, 10)
        with pytest.raises(ValueError):
            _sqrt_floor(2, -1)
        assert _sqrt_floor(0, 10**5) == 0

    @pytest.mark.parametrize("n", [2, 3, 1000003, 2**5001 + 7])
    @pytest.mark.parametrize("bits", [1, 48, 49, 100, 4099])
    def test_inverse_sqrt_meets_its_bound(self, n, bits):
        # |Y / 2^bits - 2^e / sqrt(n)| < 2 * 2^-bits, squared over the integers
        y = _inverse_sqrt(n, bits)
        scale = 1 << (2 * bits + (n.bit_length() - 1) // 2 * 2)
        assert (y - 2) ** 2 * n < scale < (y + 2) ** 2 * n


class TestDivmod:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(2**6000), 2**6000),
        st.integers(1, 2**3000),
        st.sampled_from([1, -1]),
        st.sampled_from(["any", "exact", "last"]),
    )
    def test_random_against_divmod(self, a, b, sign, kind):
        b *= sign
        if kind == "exact":  # remainder 0
            a = (a >> 3000) * b
        elif kind == "last":  # remainder |b| - 1 for b > 0
            a = (a >> 3000) * b + abs(b) - 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactcore, "DIVMOD_NEWTON_BITS", 64)
            assert _divmod(a, b) == divmod(a, b)

    @pytest.mark.parametrize("d", [-3, 2, 3, 10])
    @pytest.mark.parametrize("s", [50, 700, 5000])
    def test_powers_of_d_as_code_prefix_builds_them(self, newton_everywhere, d, s):
        rng = random.Random(d * s)
        b = d**s
        size = abs(b).bit_length()
        for a in (
            rng.getrandbits(2 * size),
            -rng.getrandbits(2 * size + 17),
            b * rng.getrandbits(size),
            b * rng.getrandbits(size) + abs(b) - 1,
            rng.getrandbits(size - 2),  # smaller than the divisor
            0,
        ):
            assert _divmod(a, b) == divmod(a, b), (a, b)

    @pytest.mark.parametrize("bits", [DIVMOD_NEWTON_BITS - 1, DIVMOD_NEWTON_BITS, DIVMOD_NEWTON_BITS + 1])
    def test_across_the_crossover(self, bits):
        rng = random.Random(bits)
        b = rng.getrandbits(bits) | (1 << (bits - 1))
        a = rng.getrandbits(2 * bits)
        assert _divmod(a, b) == divmod(a, b)
        assert _divmod(a - a % b, b) == divmod(a - a % b, b)

    def test_large_by_the_defining_inequality(self):
        rng = random.Random(11)
        b = 3**500_000
        a = rng.getrandbits(2 * b.bit_length())
        q, r = _divmod(a, b)
        assert a == q * b + r and 0 <= r < b

    def test_zero_divisor_raises_like_divmod(self):
        with pytest.raises(ZeroDivisionError):
            _divmod(5, 0)

    @pytest.mark.parametrize("b", [3, 3**1000, 2**4099 - 1, 2**4099])
    @pytest.mark.parametrize("bits", [1, 48, 49, 100, 4099])
    def test_reciprocal_meets_its_bound(self, b, bits):
        # |V / 2^bits - 2^(l-1) / b| < 2 * 2^-bits, over the integers
        v = _reciprocal(b, bits)
        scale = 1 << (bits + b.bit_length() - 1)
        assert (v - 2) * b < scale < (v + 2) * b


class TestFixupGuard:
    """A Newton estimate far off is refused by the exact fix-up."""

    def test_sqrt_with_a_wrong_inverse_root_raises(self, newton_everywhere, monkeypatch):
        right = exactcore._inverse_sqrt
        monkeypatch.setattr(exactcore, "_inverse_sqrt", lambda n, bits: right(n, bits) + (1 << 20))
        with pytest.raises(ExactCheckError, match="_sqrt_floor"):
            _sqrt_floor(2, 5000)

    def test_divmod_with_a_wrong_reciprocal_raises(self, newton_everywhere, monkeypatch):
        right = exactcore._reciprocal
        monkeypatch.setattr(exactcore, "_reciprocal", lambda b, bits: right(b, bits) - (1 << 20))
        rng = random.Random(5)
        with pytest.raises(ExactCheckError, match="_divmod"):
            _divmod(rng.getrandbits(8000), 3**2500)

    def test_the_guard_survives_small_estimate_errors(self, newton_everywhere, monkeypatch):
        # an estimate off by one unit of the last Newton step still ends exact
        right_y, right_v = exactcore._inverse_sqrt, exactcore._reciprocal
        monkeypatch.setattr(exactcore, "_inverse_sqrt", lambda n, bits: right_y(n, bits) + 1)
        monkeypatch.setattr(exactcore, "_reciprocal", lambda b, bits: right_v(b, bits) - 1)
        assert _sqrt_floor(2, 5000) == math.isqrt(2 << 10_000)
        a, b = random.Random(6).getrandbits(8000), 3**2500
        assert _divmod(a, b) == divmod(a, b)
