"""Exact scalar arithmetic over the rationals extended by declared irrational
constants, integer matrices, expansion testing, and the adapted norm for
commuting expanding families.

Scalars are linear combinations q0 + q1*theta1 + ... with rational q_i over a
declared basis of irrational symbols.  Addition, negation, multiplication by
rationals and the action of rational matrices are closed and exact; numeric
values are produced on demand at any requested bit precision together with a
certified error bound.  Linear independence of {1, theta1, ...} over Q is
*declared*, never proved.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BasisMismatchError",
    "NearIntegerError",
    "ExactCheckError",
    "IrrationalBasis",
    "Scalar",
    "TorusPoint",
    "IntMatrix",
    "AdaptedNorm",
    "register_irrational",
    "resolve_evaluator",
    "scalar_add",
    "scalar_scale",
    "mat_apply",
    "evaluate",
    "fractional_part",
    "frac",
    "is_expanding",
    "commute",
    "adapted_norm",
    "parse_scalar",
    "format_scalar",
]

Rational = Fraction | int
#: An evaluator maps a bit precision p >= 1 to (approximation, error bound),
#: both Fractions, with bound <= 2**(1-p).
Evaluator = Callable[[int], tuple[Fraction, Fraction]]


class BasisMismatchError(ValueError):
    """Operands do not share one IrrationalBasis."""


class NearIntegerError(ArithmeticError):
    """Value indistinguishable from an integer at the requested precision.

    The caller should retry at higher precision.
    """


class ExactCheckError(ArithmeticError):
    """A computed result failed the exact check that certifies it.

    Raised in place of an assert, so the check survives ``python -O``.
    """


# ---------------------------------------------------------------------------
# big-integer square roots and divisions by Newton's iteration
#
# math.isqrt and divmod cost O(n^2) on n-bit operands in CPython 3.11; the
# helpers below use multiplications only (Karatsuba, O(n^1.585)), as in
# Brent & Zimmermann, Modern Computer Arithmetic (2010), sections 3.4-3.5.
# Each Newton result is an estimate whose distance from the answer is bounded
# by the error argument in its docstring; an exact integer fix-up moves it to
# the answer and raises ExactCheckError if that takes more than _NEWTON_FIXUP
# steps, so no estimate is ever returned unchecked.

#: Root size (bits) from which _sqrt_floor leaves math.isqrt, and size of
#: the quotient and of the divisor (bits) from which _divmod leaves divmod;
#: bench/fixed_point_scaling.py measures both sides (BENCH_scaling.json).
SQRT_NEWTON_BITS = 4_000
DIVMOD_NEWTON_BITS = 32_000
#: Each Newton step of precision k -> K has K <= 2k - _NEWTON_SLACK and reads
#: its operands at K + _NEWTON_GUARD bits; the first one starts from an exact
#: floor at <= _NEWTON_BASE_BITS bits.  The error arguments bound every
#: estimate within _NEWTON_FIXUP of its answer.
_NEWTON_SLACK = 6
_NEWTON_BASE_BITS = 48
_NEWTON_GUARD = 4
_NEWTON_FIXUP = 2


def _newton_precisions(bits: int) -> list[int]:
    """k_0 <= _NEWTON_BASE_BITS, then k_{i+1} <= 2 k_i - _NEWTON_SLACK up to bits."""
    precisions = [bits]
    while precisions[-1] > _NEWTON_BASE_BITS:
        precisions.append((precisions[-1] + _NEWTON_SLACK + 1) // 2)
    return precisions[::-1]


def _inverse_sqrt(n: int, bits: int) -> int:
    """Y with |Y / 2^bits - 1/sqrt(A)| < 2 * 2^-bits, A = n / 4^e in [1, 4)
    for e = (bitlength(n) - 1) // 2.

    Newton's iteration r <- r + r (1 - A r^2) / 2 with precision doubling,
    from Y = floor(2^k0 / sqrt(A)).  With |r - 1/sqrt(A)| < 3 * 2^-k, a step
    to K <= 2k - 6 bits, reading A and 1 - A r^2 at K + 4 bits, is off by at
    most 54 * 2^-2k (the iteration's own error 1/sqrt(A) (3/2 d^2 + d^3 / 2),
    |d| < 6 * 2^-k) plus 1.02 * 2^-(K+4) (the truncations) plus 2^-K (the
    floor): less than 1.93 * 2^-K.
    """
    e2 = (n.bit_length() - 1) // 2 * 2
    k0, *steps = _newton_precisions(bits)
    y = math.isqrt((1 << (2 * k0 + e2)) // n)
    k = k0
    for big_k in steps:
        f = big_k + _NEWTON_GUARD
        shift = f - e2  # floor(A 2^f) = n << shift
        square = y * y
        t = (n * square) << shift if shift >= 0 else (n >> -shift) * square
        defect = ((1 << (f + 2 * k)) - t) >> (2 * k)  # 1 - A r^2 at f bits
        y = (y << (big_k - k)) + ((y * defect) >> (k + _NEWTON_GUARD + 1))
        k = big_k
    return y


def _reciprocal(b: int, bits: int) -> int:
    """V with |V / 2^bits - 1/B| < 2 * 2^-bits, B = b / 2^(bitlength(b) - 1)
    in [1, 2), b > 0.

    Newton's iteration v <- v + v (1 - B v) with precision doubling, from
    V = floor(2^k0 / B).  With |v - 1/B| < 3 * 2^-k, a step to K <= 2k - 6
    bits, reading B and 1 - B v at K + 4 bits, is off by at most 36 * 2^-2k
    (the iteration's own error (1/B) d^2, |d| < 6 * 2^-k) plus 2.04 *
    2^-(K+4) (the truncations) plus 2^-K (the floor): less than 1.69 * 2^-K.
    """
    top = b.bit_length() - 1
    k0, *steps = _newton_precisions(bits)
    v = (1 << (k0 + top)) // b
    k = k0
    for big_k in steps:
        f = big_k + _NEWTON_GUARD
        shift = top - f  # floor(B 2^f) = b >> shift
        t = (b >> shift if shift >= 0 else b << -shift) * v
        defect = ((1 << (f + k)) - t) >> k  # 1 - B v at f bits
        v = (v << (big_k - k)) + ((v * defect) >> (k + _NEWTON_GUARD))
        k = big_k
    return v


def _sqrt_floor(n: int, p: int) -> int:
    """floor(2^p sqrt(n)), equal to math.isqrt(n << 2p), for n >= 0, p >= 0.

    Below SQRT_NEWTON_BITS bits of root it is math.isqrt.  Above, with
    a = n 4^p = A 4^E (A = n / 4^e as in _inverse_sqrt, E = e + p) and
    h = (E + 16) // 2, y = Y / 2^h from _inverse_sqrt is within 2 * 2^-h of
    1/sqrt(A), and X = floor(A y 2^h), A read at h + 2 bits, is within
    10 * 2^-h of sqrt(A) 2^h; x0 = X 2^(E-h) is within 10 * 2^(E-h) of
    sqrt(a).  One Karp-Markstein step s = x0 + floor(R y 2^-(E+1)), with
    R = a - x0^2 exact and read at 2^(E-4), is within 293 * 2^(E-2h) + 1.04
    < 1.05 of sqrt(a), so at most 2 from floor(sqrt(a)).  The fix-up forms
    r = a - s^2 exactly (from R, X and s - x0) and steps s until
    0 <= r <= 2s, which holds exactly when s = floor(sqrt(a)); more than 2
    steps raise ExactCheckError.
    """
    if n < 0 or p < 0:
        raise ValueError("_sqrt_floor needs n >= 0 and p >= 0")
    e = (n.bit_length() - 1) // 2
    big_e = e + p
    if n == 0 or big_e < SQRT_NEWTON_BITS:
        return math.isqrt(n << (2 * p))
    h = (big_e + 16) // 2
    y = _inverse_sqrt(n, h)
    shift = h + 2 - 2 * e  # floor(A 2^(h+2)) = n << shift
    x = ((n * y) << shift if shift >= 0 else (n >> -shift) * y) >> (h + 2)
    low = big_e - h
    residual = (n << (2 * p)) - (x * x << (2 * low))
    step = ((residual >> (big_e - 4)) * y) >> (h + 5)
    s = (x << low) + step
    r = residual - (x * step << (low + 1)) - step * step
    for _ in range(_NEWTON_FIXUP + 1):
        if r < 0:
            s -= 1
            r += 2 * s + 1
        elif r > 2 * s:
            r -= 2 * s + 1
            s += 1
        else:
            return s
    raise ExactCheckError(
        f"_sqrt_floor: Newton root of a {n.bit_length()}-bit n at p={p} is "
        f"more than {_NEWTON_FIXUP} from floor(2^p sqrt(n))"
    )


def _newton_quotient(a: int, b: int, v: int, h: int) -> tuple[int, int]:
    """divmod(a, b) for 0 <= a < 2^(h-4) b, b > 0, from V = v of
    _reciprocal(b, h).

    With l = bitlength(b) and m = bitlength(a) - l + 1 <= h - 4, V / 2^h is
    within 2 * 2^-h of 2^(l-1) / b, and q = floor((a >> (l - 6)) V
    2^-(h+5)) is within 2^m * 2 * 2^-h + 1.01 * 2^-5 + 1 < 1.16 of a / b
    (a < 2^m 2^(l-1)), so at most 2 from a // b.  The fix-up forms
    r = a - q b exactly and steps q until 0 <= r < b; more than 2 steps
    raise ExactCheckError.
    """
    q = ((a >> (b.bit_length() - 6)) * v) >> (h + 5)
    r = a - q * b
    for _ in range(_NEWTON_FIXUP + 1):
        if r < 0:
            q -= 1
            r += b
        elif r >= b:
            q += 1
            r -= b
        else:
            return q, r
    raise ExactCheckError(
        f"_divmod: Newton quotient of a {a.bit_length()}-bit by a {b.bit_length()}-bit "
        f"integer is more than {_NEWTON_FIXUP} from the floor"
    )


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b), signs included.

    Below DIVMOD_NEWTON_BITS bits of quotient or of divisor it is divmod.
    Above, for a >= 0 < b (other signs reduce to it), the quotient of m bits
    comes in two halves, each a _newton_quotient with one reciprocal of b at
    h = m - m // 2 + 5 bits: the top half divides a >> (m // 2), and the low
    half the remainder shifted back up plus a's low m // 2 bits.  Each half
    is exact or raises ExactCheckError.  Halving the quotient lets the
    reciprocal stop at half of its bits, where Newton's iteration spends
    most of its work.
    """
    if b < 0:
        q, r = _divmod(-a, -b)
        return q, -r
    if a < 0:
        q, r = _divmod(-1 - a, b)
        return -1 - q, b - 1 - r
    quotient_bits = a.bit_length() - b.bit_length() + 1
    if min(b.bit_length(), quotient_bits) < DIVMOD_NEWTON_BITS:
        return divmod(a, b)
    low = quotient_bits // 2
    h = quotient_bits - low + 5
    v = _reciprocal(b, h)
    high, r = _newton_quotient(a >> low, b, v, h)
    q, r = _newton_quotient((r << low) | (a & ((1 << low) - 1)), b, v, h)
    return (high << low) | q, r


# ---------------------------------------------------------------------------
# evaluator registry


#: A dyadic constant maps a bit precision p >= 1 to integers (N, s): N / 2^s
#: lies within 2^-p of the constant.  Scalar._dyadic_terms, the one caller,
#: checks p.
Dyadic = Callable[[int], tuple[int, int]]


def _sqrt_dyadic(n: int) -> Dyadic:
    """p -> (floor(2^p sqrt(n)), p): the floor is exact, so the truncation
    error is < 2^-p.  _sqrt_floor computes it, above SQRT_NEWTON_BITS by a
    Newton reciprocal square root whose estimate is within 2 of the floor
    (its error argument), made exact by one residual r = n 4^p - s^2 and
    steps of s until 0 <= r <= 2s, or refused by ExactCheckError."""

    def dyadic(p: int) -> tuple[int, int]:
        return _sqrt_floor(n, p), p

    return dyadic


def _mpmath_dyadic(expr: str) -> Dyadic:
    def dyadic(p: int) -> tuple[int, int]:
        import mpmath

        # mpmath constants are correct to within a few ulps at p+16 bits.
        with mpmath.workprec(p + 16):
            sign, man, exp, _ = mpmath.mpf(getattr(mpmath, expr))._mpf_
        if sign:
            man = -man
        return (man << exp, 0) if exp >= 0 else (man, -exp)

    return dyadic


_REGISTRY: dict[str, Dyadic] = {name: _mpmath_dyadic(name) for name in ("pi", "e", "phi")}

_SQRT_NAME = re.compile(r"^sqrt([0-9]+)$")


def register_irrational(name: str, evaluator: Evaluator) -> None:
    """Register a named irrational constant with a certified evaluator.

    It is stored as the dyadic function p -> (floor(2^(p+1) a), p+1) with
    (a, _) = evaluator(p + 2): a lies within 2^(-1-p) of the constant and
    the floor moves it by less than 2^(-1-p), so N / 2^s is within 2^-p.
    """
    if not name.isidentifier():
        raise ValueError(f"invalid symbol name {name!r}")

    def dyadic(p: int) -> tuple[int, int]:
        a, _ = evaluator(p + 2)
        return math.floor(a * (1 << (p + 1))), p + 1

    _REGISTRY[name] = dyadic


def resolve_evaluator(name: str) -> Dyadic:
    """Look up the dyadic function of a constant: registered names plus the
    sqrtN family."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    m = _SQRT_NAME.match(name)
    if m:
        n = int(m.group(1))
        if n <= 0 or math.isqrt(n) ** 2 == n:
            raise ValueError(f"{name}: argument is a perfect square, not irrational")
        return _REGISTRY.setdefault(name, _sqrt_dyadic(n))
    raise KeyError(f"unknown irrational symbol {name!r}")


# ---------------------------------------------------------------------------
# basis and scalars


@dataclass(frozen=True)
class IrrationalBasis:
    """A declared, Q-independent family of named irrational constants."""

    symbols: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbol names must be unique")
        for name in self.symbols:
            resolve_evaluator(name)  # fail fast on unknown names

    def index(self, name: str) -> int:
        return self.symbols.index(name)

    def __len__(self) -> int:
        return len(self.symbols)


EMPTY_BASIS = IrrationalBasis()

_Q0 = Fraction(0)


@dataclass(frozen=True)
class Scalar:
    """Exact element a0 + a1*theta1 + ... over a shared IrrationalBasis.

    coeffs[0] is the rational part; coeffs[1 + i] multiplies basis.symbols[i].
    """

    basis: IrrationalBasis
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 1 + len(self.basis):
            raise ValueError("coefficient count does not match basis size")

    # -- construction -------------------------------------------------------

    @classmethod
    def rational(cls, q: Rational, basis: IrrationalBasis = EMPTY_BASIS) -> "Scalar":
        coeffs = (Fraction(q),) + (_Q0,) * len(basis)
        return cls(basis, coeffs)

    @classmethod
    def symbol(cls, name: str, basis: IrrationalBasis, coeff: Rational = 1) -> "Scalar":
        i = basis.index(name)
        coeffs = [_Q0] * (1 + len(basis))
        coeffs[1 + i] = Fraction(coeff)
        return cls(basis, tuple(coeffs))

    # -- structure ----------------------------------------------------------

    @property
    def rational_part(self) -> Fraction:
        return self.coeffs[0]

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def _check_basis(self, other: "Scalar") -> None:
        if self.basis.symbols != other.basis.symbols:
            raise BasisMismatchError(
                f"bases differ: {self.basis.symbols} vs {other.basis.symbols}"
            )

    def _coerce(self, value: "Scalar | Rational") -> "Scalar":
        if isinstance(value, Scalar):
            self._check_basis(value)
            return value
        return Scalar.rational(value, self.basis)

    # -- exact arithmetic ---------------------------------------------------

    def __add__(self, other: "Scalar | Rational") -> "Scalar":
        o = self._coerce(other)
        return Scalar(self.basis, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: "Scalar | Rational") -> "Scalar":
        o = self._coerce(other)
        return Scalar(self.basis, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other: "Scalar | Rational") -> "Scalar":
        return (-self) + other

    def __neg__(self) -> "Scalar":
        return Scalar(self.basis, tuple(-a for a in self.coeffs))

    def __mul__(self, q: Rational) -> "Scalar":
        if isinstance(q, Scalar):
            if q.is_rational():
                q = q.rational_part
            else:
                raise TypeError("Scalar*Scalar is not closed; scale by rationals only")
        q = Fraction(q)
        return Scalar(self.basis, tuple(a * q for a in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, q: Rational) -> "Scalar":
        return self * (Fraction(1) / Fraction(q))

    # -- numerics -----------------------------------------------------------

    def _dyadic_terms(self, p: int) -> list[tuple[Fraction, int, int]]:
        """(c, N, s) for each symbol with a nonzero coefficient c: N / 2^s is
        its constant within 2^-p."""
        if p < 8:
            raise ValueError("precision must be >= 8 bits")
        return [
            (c, *resolve_evaluator(name)(p))
            for name, c in zip(self.basis.symbols, self.coeffs[1:])
            if c != 0
        ]

    def evaluate(self, p: int) -> tuple[Fraction, Fraction]:
        """Dyadic approximation and certified error bound at p bits: each
        constant contributes its dyadic value N / 2^s and the error 2^-p.

        The bound satisfies err <= 2**(1-p) * (1 + sum |coeffs|).
        """
        terms = self._dyadic_terms(p)
        val = self.coeffs[0] + sum(c * Fraction(n, 1 << s) for c, n, s in terms)
        return val, sum(abs(c) for c, _, _ in terms) / Fraction(1 << p)

    def fixed_point(self, bits: int) -> tuple[int, int]:
        """(X, E): X/2^bits approximates the value with error <= E ulps.

        X = floor(2^bits * v) and E = 2 + floor(2^bits * err) for (v, err) =
        evaluate(bits + 8).  v is formed over one common denominator
        lcm(coefficient denominators) * 2^s from the constants' dyadic
        values N / 2^s, each within 2^-(bits+8), and X and E are integer
        floor divisions: no Fraction is normalised.
        """
        terms = self._dyadic_terms(bits + 8)
        rational = self.coeffs[0]
        denom = math.lcm(rational.denominator, *(c.denominator for c, _, _ in terms))
        scale = max((s for _, _, s in terms), default=0)
        num = rational.numerator * (denom // rational.denominator) << scale
        weight = 0  # denom * sum |c|
        for c, n, s in terms:
            k = c.numerator * (denom // c.denominator)
            num += k * n << (scale - s)
            weight += abs(k)
        # v = num / (denom 2^scale); err = weight 2^-(bits+8) / denom
        if bits >= scale:
            x = (num << (bits - scale)) // denom
        else:
            x = (num >> (scale - bits)) // denom
        return x, 2 + weight // (denom << 8)

    def __float__(self) -> float:
        val, _ = self.evaluate(64)
        return float(val)

    def __str__(self) -> str:
        return format_scalar(self)


# ---------------------------------------------------------------------------
# module-level operation surface


def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    return a + b


def scalar_scale(q: Rational, a: Scalar) -> Scalar:
    return a * q


def mat_apply(
    matrix: Sequence[Sequence[Rational]], vector: Sequence[Scalar]
) -> list[Scalar]:
    """Apply a rational matrix to a vector of Scalars, exactly."""
    if not vector:
        return []
    basis = vector[0].basis
    for v in vector[1:]:
        if v.basis.symbols != basis.symbols:
            raise BasisMismatchError("vector entries use different bases")
    out = []
    for row in matrix:
        if len(row) != len(vector):
            raise ValueError("matrix row length does not match vector length")
        acc = Scalar.rational(0, basis)
        for m, v in zip(row, vector):
            if m:
                acc = acc + v * m
        out.append(acc)
    return out


def evaluate(a: Scalar, p: int) -> tuple[Fraction, Fraction]:
    return a.evaluate(p)


def frac(q: Fraction) -> Fraction:
    """Exact fractional part q - floor(q) of a rational, in [0, 1)."""
    return q - (q.numerator // q.denominator)


def fractional_part(a: Scalar, p: int = 64) -> Fraction:
    """Fractional part of a Scalar with error <= 2**(4-p).

    Rational scalars take an exact path.  Otherwise the value is evaluated at
    a working precision chosen so the result carries the stated bound; if the
    value is closer than 2**(4-p) to an integer the call refuses rather than
    guess, and the caller should raise p.
    """
    if a.is_rational():
        return frac(a.rational_part)
    if p < 8:
        raise ValueError("precision must be >= 8 bits")
    size = 1 + sum(abs(c) for c in a.coeffs)
    extra = max(8, size.numerator.bit_length() + 6)
    val, err = a.evaluate(p + extra)
    # err <= 2**(1-p-extra) * size <= 2**(-p-5)
    f = frac(val)
    guard = Fraction(1, 1 << (p - 4))
    if f <= guard or 1 - f <= guard:
        raise NearIntegerError(
            f"value within 2^{4 - p} of an integer at precision {p}; raise p"
        )
    return f


# ---------------------------------------------------------------------------
# integer matrices


def _bareiss_reduce(
    rows: Iterable[Sequence[Rational]], width: int
) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan reduction of a rational matrix.

    Each row is first scaled to integers by the lcm of its own denominators;
    pivots are taken in the first `width` columns only, so extra columns ride
    along as right-hand sides.  Returns (reduced rows, pivot columns, scale,
    sign): row i of the reduced form has `scale` at pivots[i], every pivot
    column is zero elsewhere, and a reduced row equals `scale` times the
    corresponding row of the reduced row echelon form over Q.  `scale` is the
    last pivot's leading minor (1 with no pivot) and `sign` the parity of the
    row swaps, so a full-rank square matrix has determinant sign * scale.
    Every division below is exact, because every entry is a minor of the
    scaled input (Bareiss, Math. Comp. 22, 1968).
    """
    a = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (den // x.denominator) for x in row])
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pivot_row = a[r]
        piv = pivot_row[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, pivot_row)]
        pivots.append(c)
        prev = piv
    return a, pivots, prev, sign


def _word_primes() -> Iterator[int]:
    """The primes below 2^31, largest first, so that the product of two
    residues fits in an int64.  Deterministic Miller-Rabin on the bases 2,
    3, 5 and 7, which is exact below 3,215,031,751 (Jaeschke, Math. Comp.
    61, 1993)."""
    for n in range(2**31 - 1, 2, -2):
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
        if all(
            a % n == 0
            or pow(a, (n - 1) >> s, n) == 1
            or any(pow(a, (n - 1) >> r, n) == n - 1 for r in range(1, s + 1))
            for a in (2, 3, 5, 7)
        ):
            yield n
    yield 2


def _solve_mod_prime(
    entries: list[tuple[int, int, Rational]], n: int, p: int
) -> list[int] | None:
    """x with A x = b mod p, or None when A is singular mod p.

    `entries` lists (row, column, value) for the nonzero entries of the
    n x (n + 1) matrix [A | b]; p divides no denominator.  Gauss-Jordan over
    int64 residues, one vectorised row update per pivot.
    """
    m = np.zeros((n, n + 1), dtype=np.int64)
    inverses: dict[int, int] = {}
    values = []
    for _, _, x in entries:
        den = x.denominator
        if den not in inverses:
            inverses[den] = pow(den, -1, p)
        values.append(x.numerator * inverses[den] % p)
    if entries:
        rows, cols, _ = zip(*entries)
        m[list(rows), list(cols)] = values
    for c in range(n):
        nonzero = np.flatnonzero(m[c:, c])
        if nonzero.size == 0:
            return None
        r = c + int(nonzero[0])
        if r != c:
            m[[c, r]] = m[[r, c]]
        pivot_row = m[c, c:] * pow(int(m[c, c]), -1, p) % p
        m[c, c:] = pivot_row
        factors = m[:, c].copy()
        factors[c] = 0
        others = np.flatnonzero(factors)
        if others.size:
            m[others, c:] = (m[others, c:] - np.outer(factors[others], pivot_row)) % p
    return m[:, n].tolist()


def _rational_reconstruction(u: int, m: int) -> Fraction | None:
    """The fraction r/s = u mod m with |r|, |s| <= sqrt(m / 2) and
    gcd(s, m) = 1, or None when there is none; unique when it exists.

    Wang's half-extended Euclidean algorithm (Wang, Proc. SYMSAC 1981; von
    zur Gathen & Gerhard, Modern Computer Algebra, 3rd ed., section 5.10):
    stop at the first remainder r_j <= sqrt(m / 2); every step keeps
    r_j = s_j u mod m, and the pair is the answer iff gcd(r_j, s_j) = 1.
    """
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        t = r0 // r1
        r0, r1, s0, s1 = r1, r0 - t * r1, s1, s0 - t * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _multimodular_solve(
    a: Sequence[Sequence[Rational]], b: Sequence[Rational]
) -> list[Fraction] | None:
    """The solution of the square system a x = b, certified exactly, or None
    when A is certified singular.

    Solves mod the word-size primes of _word_primes that divide no
    denominator, combines the residues by CRT and rebuilds every entry by
    rational reconstruction.  A candidate is returned only when A is full
    rank mod a prime, so that det A != 0 over Q, and A v = b holds exactly
    in Fractions, so that v is the unique solution.  H, the Hadamard bound
    of [A | b] with each row scaled to integers, bounds |det A| of the
    scaled A and, by Cramer's rule, every numerator and denominator of the
    solution.  A prime modulo which A is singular is skipped: distinct
    primes that divide a nonzero det A multiply to at most H, so skipped
    primes multiplying past H certify A singular.  A nonsingular A is
    certified before the modulus passes 2 H^2; passing it, or running out
    of primes, raises ExactCheckError.
    """
    n = len(a)
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    entries = [(i, j, x) for i, row in enumerate(rows) for j, x in row]
    entries += [(i, n, x) for i, x in enumerate(b) if x]
    denominators = {x.denominator for _, _, x in entries}
    modulus, skipped, lifted, hadamard_sq = 1, 1, [0] * n, None
    for p in _word_primes():
        if any(den % p == 0 for den in denominators):
            continue
        residues = _solve_mod_prime(entries, n, p)
        if residues is None:
            skipped *= p
        else:
            # Chinese remaindering: keep lifted mod the modulus, fix it mod p
            inverse = pow(modulus, -1, p)
            lifted = [u + modulus * ((r - u) * inverse % p) for u, r in zip(lifted, residues)]
            modulus *= p
            candidate = []
            for u in lifted:
                v = _rational_reconstruction(u, modulus)
                if v is None:
                    break
                candidate.append(v)
            else:
                if all(sum(x * candidate[j] for j, x in row) == bi for row, bi in zip(rows, b)):
                    return candidate
        if hadamard_sq is None:
            hadamard_sq = 1
            for row, bi in zip(rows, b):
                scaled = [x for _, x in row] + [bi]
                den = math.lcm(*(x.denominator for x in scaled))
                hadamard_sq *= sum((x.numerator * (den // x.denominator)) ** 2 for x in scaled)
        if skipped**2 > hadamard_sq:
            return None
        if modulus > 2 * hadamard_sq:
            raise ExactCheckError("multi-modular solve passed its Hadamard bound uncertified")
    raise ExactCheckError("multi-modular solve ran out of word-size primes")


def _matmul(a, b):
    """The product of two integer matrices given as tuples of rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix with exact products, powers and inverses."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.rows)
        if d == 0 or any(len(r) != d for r in self.rows):
            raise ValueError("matrix must be square and nonempty")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls.scalar(1, d)

    @classmethod
    def scalar(cls, value: int, d: int = 1) -> "IntMatrix":
        return cls(tuple(tuple(value if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        return IntMatrix(_matmul(self.rows, other.rows))

    def __pow__(self, n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError("negative powers are rational; use inverse_rational")
        result = IntMatrix.identity(self.dimension)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        _, pivots, scale, sign = _bareiss_reduce(self.rows, self.dimension)
        return sign * scale if len(pivots) == self.dimension else 0

    def inverse_rational(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact inverse as a Fraction matrix."""
        d = self.dimension
        aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(self.rows)]
        reduced, pivots, scale, _ = _bareiss_reduce(aug, d)
        if len(pivots) < d:
            raise ZeroDivisionError("matrix is singular")
        return tuple(tuple(Fraction(x, scale) for x in row[d:]) for row in reduced)

    def apply(self, vector: Sequence[Scalar]) -> list[Scalar]:
        return mat_apply(self.rows, vector)

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.rows) + "]"


def commute(a: IntMatrix, b: IntMatrix) -> bool:
    """Exact test of AB = BA."""
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    return (a @ b).rows == (b @ a).rows


def _characteristic_polynomial(m: IntMatrix) -> list[int]:
    """Integer coefficients c_0, ..., c_n = 1 of det(zI - M), lowest first.

    Faddeev-LeVerrier: M_1 = I, M_k = M M_{k-1} + c_{n-k+1} I and
    c_{n-k} = -tr(M M_k) / k, where every division is exact.
    """
    n = m.dimension
    coeffs = [0] * n + [1]
    m_k = IntMatrix.scalar(0, n)
    for k in range(1, n + 1):
        m_k = m @ m_k + IntMatrix.scalar(coeffs[n - k + 1], n)
        product = m @ m_k
        coeffs[n - k] = -sum(product.rows[i][i] for i in range(n)) // k
    return coeffs


def is_expanding(d_matrix: IntMatrix) -> bool:
    """True iff every complex eigenvalue has modulus > 1, decided exactly.

    The eigenvalues all lie outside the closed unit disc iff the roots of the
    reversed characteristic polynomial q(z) = z^n p(1/z) all lie inside the
    open one.  The Schur-Cohn reduction decides that in integers: q = a_0 +
    ... + a_n z^n is Schur-stable iff |a_0| < |a_n| and (a_n q - a_0 q*)/z
    is, where q* reverses q (Bistritz, Proc. IEEE 72(9), 1984).  Its first
    step is |det| >= 2.  No float is involved, so the verdict is never
    indeterminate.
    """
    q = _characteristic_polynomial(d_matrix)[::-1]
    while len(q) > 1:
        a0, an = q[0], q[-1]
        if abs(a0) >= abs(an):
            return False
        q = [an * x - a0 * y for x, y in zip(q[1:], q[-2::-1])]
        content = math.gcd(*q)  # > 0: the new leading term an^2 - a0^2 is not 0
        q = [x // content for x in q]
    return True


# ---------------------------------------------------------------------------
# torus points


class TorusPoint:
    """Vector of Scalars with mod-Z^d semantics.

    Equality is exact equality mod Z^d: identical irrational coefficient
    vectors and rational parts differing by integers.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Scalar]):
        coords = tuple(coords)
        if not coords:
            raise ValueError("dimension must be >= 1")
        basis = coords[0].basis
        for c in coords[1:]:
            if c.basis.symbols != basis.symbols:
                raise BasisMismatchError("coordinates use different bases")
        self.coords = coords

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def basis(self) -> IrrationalBasis:
        return self.coords[0].basis

    def reduced(self) -> "TorusPoint":
        """Canonical representative: rational parts reduced into [0, 1)."""
        return TorusPoint(
            [Scalar(s.basis, (frac(s.rational_part),) + s.coeffs[1:]) for s in self.coords]
        )

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "TorusPoint":
        return TorusPoint([-a for a in self.coords])

    def _key(self):
        return tuple((frac(s.rational_part), s.coeffs[1:]) for s in self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusPoint):
            return NotImplemented
        if self.dimension != other.dimension:
            return False
        if self.basis.symbols != other.basis.symbols:
            return False
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "TorusPoint(" + ", ".join(format_scalar(s) for s in self.coords) + ")"


# ---------------------------------------------------------------------------
# adapted norm (commuting expanding families)


@dataclass(frozen=True)
class AdaptedNorm:
    """Norm on C^d making every matrix of a commuting expanding family expand.

    ||x|| = max_i weights[i] * |(Q^H x)_i| where Q unitarily triangularizes
    the family.  `rho_certified` is the lower bound 1/max_A ||A^{-1}||_op on
    ||Ax||/||x||, the one expansion factor that contraction estimates read.
    """

    change_of_basis: np.ndarray = field(repr=False)
    weights: tuple[int, ...]
    rho_certified: float

    def norm(self, x: np.ndarray) -> float | np.ndarray:
        """Adapted norm of a vector (or row-stacked vectors) in C^d."""
        x = np.asarray(x, dtype=complex)
        coords = x @ self.change_of_basis.conj()  # rows times Q-bar = (Q^H x)^T
        w = np.asarray(self.weights, dtype=float)
        vals = np.max(np.abs(coords) * w, axis=-1)
        return float(vals) if vals.ndim == 0 else vals


def adapted_norm(matrices: Sequence[IntMatrix]) -> AdaptedNorm:
    """Construct the expansion-adapted norm for a commuting expanding family.

    Weights are m^(i-1) with m the smallest integer exceeding d*a/(lambda-1),
    where lambda is the smallest eigenvalue modulus over the family and a the
    largest entry modulus of the triangularized forms.
    """
    mats = list(matrices)
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].dimension
    for m in mats:
        if m.dimension != d:
            raise ValueError("dimension mismatch")
    for i, a in enumerate(mats):
        for b in mats[i + 1 :]:
            if not commute(a, b):
                raise ValueError(f"matrices do not commute: {a} vs {b}")
    for m in mats:
        if not is_expanding(m):
            raise ValueError(f"matrix is not expanding: {m}")

    arrays = [m.as_array() for m in mats]
    if d == 1:
        q = np.eye(1, dtype=complex)
        tris = [a.astype(complex) for a in arrays]
    else:
        q, tris = _simultaneous_schur(arrays)

    lam = min(float(np.min(np.abs(np.linalg.eigvals(a)))) for a in arrays)
    a_max = max(float(np.max(np.abs(t))) for t in tris)
    m_weight = math.floor(d * a_max / (lam - 1.0)) + 1
    weights = tuple(m_weight ** i for i in range(d))

    # ||A^{-1}||_op in the weighted max norm: the max row sum of W T^{-1} W^{-1}
    w = np.asarray(weights, dtype=float)
    op = max(
        float(np.max(np.sum(np.abs(w[:, None] * np.linalg.inv(t) / w[None, :]), axis=1)))
        for t in tris
    )
    rho_cert = 1.0 / op
    if not rho_cert > 1.0:
        raise ArithmeticError(f"certified expansion factor {rho_cert} not > 1")
    return AdaptedNorm(change_of_basis=q, weights=weights, rho_certified=rho_cert)


def _simultaneous_schur(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Unitary Q triangularizing every member of a commuting family.

    Uses the Schur basis of a generic linear combination and verifies it
    triangularizes each matrix, retrying with other combinations if not.
    """
    from scipy.linalg import schur

    coeff_sets = [
        [1.618033988749895 ** i for i in range(len(arrays))],
        [math.pi ** (i + 1) % 7 + 0.5 for i in range(len(arrays))],
        [math.sin(3.7 * (i + 1)) + 2.0 for i in range(len(arrays))],
    ]
    scale = max(float(np.max(np.abs(a))) for a in arrays)
    for coeffs in coeff_sets:
        combo = sum(c * a for c, a in zip(coeffs, arrays))
        _, q = schur(combo.astype(complex), output="complex")
        tris = [q.conj().T @ a @ q for a in arrays]
        ok = all(
            float(np.max(np.abs(np.tril(t, -1)))) <= 1e-8 * max(scale, 1.0)
            for t in tris
        )
        if ok:
            tris = [np.triu(t) for t in tris]
            return q, tris
    raise ArithmeticError("could not simultaneously triangularize family")


# ---------------------------------------------------------------------------
# scalar text syntax: `a/b`, `a/b*name`, joined by `+` / `-`


_TERM = re.compile(
    r"^\s*(?P<num>[+-]?\d+)\s*(?:/\s*(?P<den>\d+))?\s*(?:\*\s*(?P<name>[A-Za-z_]\w*))?\s*$"
)


def parse_scalar(text: str, basis: IrrationalBasis) -> Scalar:
    """Parse the config syntax, e.g. ``1/3 + 2/3*sqrt2`` or ``-5/7``."""
    s = text.replace("−", "-").strip()
    if not s:
        raise ValueError("empty scalar string")
    # split into signed terms at top level
    terms: list[tuple[int, str]] = []
    sign, start = 1, 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = 1
    buf = []
    cur_sign = sign
    i = start
    while i < len(s):
        ch = s[i]
        if ch in "+-":
            terms.append((cur_sign, "".join(buf)))
            buf = []
            cur_sign = -1 if ch == "-" else 1
        else:
            buf.append(ch)
        i += 1
    terms.append((cur_sign, "".join(buf)))

    coeffs = [_Q0] * (1 + len(basis))
    for sgn, term in terms:
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"cannot parse scalar term {term!r} in {text!r}")
        num = int(m.group("num"))
        den = int(m.group("den") or 1)
        if den == 0:
            raise ValueError(f"zero denominator in scalar term {term!r} in {text!r}")
        q = Fraction(sgn * num, den)
        name = m.group("name")
        if name is None:
            coeffs[0] += q
        else:
            try:
                idx = basis.index(name)
            except ValueError:
                raise BasisMismatchError(
                    f"symbol {name!r} not among declared irrationals {basis.symbols}"
                ) from None
            coeffs[1 + idx] += q
    return Scalar(basis, tuple(coeffs))


def format_scalar(s: Scalar) -> str:
    """Inverse of parse_scalar (canonical form)."""
    parts: list[str] = []

    def frac_str(q: Fraction) -> str:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if s.coeffs[0] != 0 or s.is_rational():
        parts.append(frac_str(s.coeffs[0]))
    for name, c in zip(s.basis.symbols, s.coeffs[1:]):
        if c == 0:
            continue
        term = f"{frac_str(abs(c))}*{name}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
