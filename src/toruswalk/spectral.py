"""Fourier coefficients of atomic and self-similar Bernoulli measures,
convolution, exact-zero detection, and the index classification that routes
every nonzero frequency to a vanishing factor in the Haar counterexample.

Coefficient functions are lazy (n -> value) with memoization, and
`CoefficientFunction.table(ns)` evaluates every index of a list that is not
memoized yet in one batch; a single f(n) is a batch of one.  Every measure
is real, so a batch evaluates each distinct |n| once and gives -n the
conjugate (`_selfsimilar_values`).  Values carry a certified error bound and
an `exact_zero` flag.  Exact zeros are detected only through the
equal-weight two-atom cosine criterion (n * (a2 - a1) * D^-s in 1/2 + Z),
which covers every exact claim needed; all other small values are reported
as numerically below the certified error.

Every character average sum_i w_i e(n a_i D^-s), e(x) = exp(2 pi i x), goes
through one float64 evaluator, `_character_products`, which takes a batch of
frequencies and every scale s = 0..S of their truncated products in one
numpy pass.  It reduces each angle with exact integers to the nearest
quarter turn plus an offset of at most 1/8 turn, so quarter turns come out
exactly as +-1 and +-i.  The offset becomes a double-double angle, and its
cosine and sine come from fixed Taylor polynomials of degree 16 and 15,
evaluated by separate numpy multiplications and additions.  No libm function
and no fused multiply-add enters, and its docstring derives why the result
stays inside the per-factor rounding allowance `(k + 2) 2^-52` that the
certified errors state.

What depends only on the measure is derived once per measure, not per
coefficient (`_measure_data`: a `DiscreteMeasure` in its constructor, a
`SelfSimilarSpec` on first use): the common denominator Q and numerators
A_i = a_i Q of the atoms, the float weights, float(max |a_i|), for an
equal-weight pair the gap |a_2 - a_1| as an integer fraction g / h, so that
the exact-zero test runs on integers (2 |g n| >= h |D|^j and
2 |g n| / (h |D|^j) odd), and, filled as deeper scales are needed, the
double-double constant (pi/2) / (Q |D|^s) of each scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exactcore import frac

__all__ = [
    "FourierValue",
    "DiscreteMeasure",
    "SelfSimilarSpec",
    "CoefficientFunction",
    "fourier_discrete",
    "fourier_selfsimilar",
    "convolve",
    "classify_index",
    "is_haar_up_to",
    "family_exact_zero",
    "routing_consistent",
    "diagnostics",
    "truncation_depth",
    "EVALUATOR",
]

#: name of the character evaluator, reported in run diagnostics
EVALUATOR = "float64-taylor"

_Q0 = Fraction(0)


@dataclass(frozen=True)
class FourierValue:
    """One Fourier coefficient with certified absolute error."""

    value: complex
    error: float
    exact_zero: bool = False

    def provably_zero(self) -> bool:
        """|value| < error, decided exactly (see _modulus_sign)."""
        return self.exact_zero or _modulus_sign(self.value, self.error) < 0


def _modulus_sign(z: complex, bound: float, centre: float = 0.0) -> int:
    """The sign of |z - centre| - bound, decided exactly with no libm hypot:
    each finite float is n / 2^j, so over the largest 2^j of the four all are
    integers and (re - centre)^2 + im^2 - bound^2 is computed exactly.  A z
    with a part that is not finite, and a bound that is negative or NaN,
    give 1; an infinite bound gives -1 for every finite z."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag) and bound >= 0):
        return 1
    if bound == math.inf:
        return -1
    ratios = [x.as_integer_ratio() for x in (z.real, centre, z.imag, bound)]
    k = max(d for _, d in ratios).bit_length()
    re, c, im, b = (n << (k - d.bit_length()) for n, d in ratios)
    gap = (re - c) ** 2 + im * im - b * b
    return (gap > 0) - (gap < 0)


_ONE = FourierValue(1.0 + 0j, 0.0, exact_zero=False)
_ZERO = FourierValue(0j, 0.0, exact_zero=True)

# floor(pi * 2^124), so that 0 <= pi - _PI_SCALED * 2^-124 < 2^-124
_PI_SCALED = 0x3243F6A8885A308D313198A2E0370734
# an offset rho / (4 M) turns is pi rho / (2 M) = _PI_SCALED rho / (M << 125)
# radians
_PI_SHIFT = 125
# Veltkamp's constant 2^27 + 1: with c = _SPLIT x, x1 = c - (c - x) and
# x2 = x - x1 are halves of at most 26 bits with x = x1 + x2 exactly
_SPLIT = 134217729.0
# scales whose modulus is below this reduce in int64; then |rho| <= M / 2 is
# an exact float
_INT64_MODULUS = 1 << 53
# correctly rounded Taylor coefficients (-1)^j / (2j)! for j = 2..8 and
# (-1)^(j+1) / (2j+3)! for j = 0..6:
#   cos y = 1 - y^2/2 + sum_j _COS[j-2] y^(2j)    (degree 16)
#   sin y = y + sum_j _SIN[j] y^(2j+3)            (degree 15)
_COS = tuple(float(Fraction((-1) ** j, math.factorial(2 * j))) for j in range(2, 9))
_SIN = tuple(float(Fraction((-1) ** (j + 1), math.factorial(2 * j + 3))) for j in range(7))
# frequency x scale x atom elements per numpy pass: large enough that the
# per-call overhead of numpy is spread, small enough that the temporaries
# stay a few hundred kB
_CHUNK_ELEMENTS = 4096


class _Scale(NamedTuple):
    """Scale s of a measure: the modulus M = Q |D|^s and (pi/2) / M as the
    double-double k_hi + k_lo, with k_hi = k1 + k2 split by Veltkamp."""

    modulus: int
    k_hi: float
    k1: float
    k2: float
    k_lo: float


class _MeasureData(NamedTuple):
    """What the coefficient functions read of a measure, derived once."""

    modulus: int  # the common denominator Q of the atoms a_i = A_i / Q
    numerators: tuple[int, ...]  # the A_i
    weights: tuple[float, ...]  # the correctly rounded weights
    delta_max: float  # float(max |a_i|)
    trivial: bool  # max |a_i| == 0, so every character is 1
    gap: tuple[int, int] | None  # |a_2 - a_1| as (numerator, denominator), equal-weight pairs only
    scales: list[_Scale]  # scale s = 0, 1, ... as far as a product needed it


def _measure_data(atoms: Sequence[Fraction], weights: Sequence[Fraction]) -> _MeasureData:
    q = math.lcm(*(a.denominator for a in atoms))
    delta_max = max(abs(a) for a in atoms)
    gap = None
    if len(atoms) == 2 and weights[0] == weights[1]:
        g = abs(atoms[1] - atoms[0])
        gap = (g.numerator, g.denominator)
    return _MeasureData(
        q,
        tuple(a.numerator * (q // a.denominator) for a in atoms),
        tuple(float(w) for w in weights),
        float(delta_max),
        delta_max == 0,
        gap,
        [],
    )


def _half_odd(twice: int, den: int) -> bool:
    """twice / den is an odd integer: half of it lies in 1/2 + Z."""
    quotient, rest = divmod(twice, den)
    return not rest and quotient & 1 == 1


def _double_double(num: int, den: int) -> tuple[float, float]:
    """(hi, lo): hi is num / den correctly rounded and lo the rest
    num / den - hi correctly rounded (Python's int / int rounds correctly)."""
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _scales(data: _MeasureData, d_abs: int, count: int) -> list[_Scale]:
    """The first `count` scales of a measure whose base has |D| = d_abs."""
    cache = data.scales
    while len(cache) < count:
        modulus = data.modulus * d_abs ** len(cache)
        k_hi, k_lo = _double_double(_PI_SCALED, modulus << _PI_SHIFT)
        c = _SPLIT * k_hi
        k1 = c - (c - k_hi)
        cache.append(_Scale(modulus, k_hi, k1, k_hi - k1, k_lo))
    return cache[:count]


def _quarter(value: int, modulus: int) -> tuple[int, int]:
    """(q mod 4, rho) with value = q modulus + rho and -modulus/2 < rho <= modulus/2."""
    q, rho = divmod(value, modulus)
    if 2 * rho > modulus:
        q += 1
        rho -= modulus
    return q & 3, rho


def _horner(z: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """sum_j coeffs[j] z^j by Horner's rule, one multiplication and one
    addition per step."""
    acc = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        acc = a + z * acc
    return acc


def _cos_sin(y: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the double-double angle y + e, |y| <= (pi/4)(1 + 3u)
    and |e| <= 2.01 u |y|; the error analysis is in `_character_products`."""
    c = _SPLIT * y
    y1 = c - (c - y)
    y2 = y - y1
    z = y * y
    cross = y1 * y2
    z_lo = (((y1 * y1 - z) + cross) + cross) + y2 * y2  # y^2 = z + z_lo (Dekker)
    half = 0.5 * z
    w = 1.0 - half
    w_lo = (1.0 - w) - half  # 1 - z/2 = w + w_lo (Fast2Sum)
    sin_tail = (y * z) * _horner(z, _SIN)  # sin y - y
    cos_tail = (z * z) * _horner(z, _COS)  # cos y - 1 + y^2/2
    cos = w + (((w_lo - 0.5 * z_lo) - e * (y + sin_tail)) + cos_tail)
    sin = y + (sin_tail + e * cos)
    return cos, sin


def _tree_product(re: np.ndarray, im: np.ndarray, depths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """prod_{s <= depths[j]} (re + i im)[j, s] for every row j, multiplying
    neighbours level by level (s = 2p with 2p + 1, then the pairs, ...).
    Columns past a row's depth are skipped, not multiplied, so a row's bits
    do not depend on the other rows of its batch."""
    width = 1 << (re.shape[1] - 1).bit_length()
    if width > re.shape[1]:
        pad = np.zeros((re.shape[0], width - re.shape[1]))
        re, im = np.concatenate((re, pad), axis=1), np.concatenate((im, pad), axis=1)
    idle = np.arange(width) > np.asarray(depths)[:, None]
    while re.shape[1] > 1:
        a, b, c, d = re[:, 0::2], im[:, 0::2], re[:, 1::2], im[:, 1::2]
        skip = idle[:, 1::2]
        re, im = np.where(skip, a, a * c - b * d), np.where(skip, b, a * d + b * c)
        idle = idle[:, 0::2]
    return re[:, 0], im[:, 0]


def _character_products(
    data: _MeasureData, base: int, ns: Sequence[int], depths: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of prod_{0 <= s <= S_j} sum_i w_i
    e(n_j A_i / (Q base^s)) in float64 for every n_j of `ns`, S_j =
    depths[j]; the weights w_i >= 0 sum to 1 and are given as their correctly
    rounded floats.  A discrete measure is base 1 and depth 0.

    Scale s has angle n A_i / (Q base^s) = (+-n) A_i / M_s with M_s =
    Q |base|^s: n changes sign at odd s for a negative base.  Each angle is
    reduced with exact integers: 4 n A_i = q M + rho with -M/2 < rho <= M/2,
    so e(n A_i / M) = i^q e(rho / (4 M)) with an offset of at most 1/8 turn,
    phi = (pi/2) rho / M, |phi| <= pi/4.  Quarter turns (rho = 0) give
    exactly 1, i, -1 or -i, and i^q only swaps and negates cos(phi) and
    sin(phi).  The angle is formed as a double-double y + e:

    * M < 2^53 (int64 numpy): rho is an exact float x; with (pi/2) / M =
      k_hi + k_lo taken once per scale from pi to 124 bits, y = fl(x k_hi)
      and e = err + fl(x k_lo), where err = x k_hi - y exactly (Dekker's
      product with Veltkamp splits, Dekker, Numer. Math. 18, 1971);
    * otherwise (Python integers): y = phi correctly rounded and e = phi - y
      correctly rounded, from the same 124-bit pi.

    Either way |y + e - phi| < 4 u^2 with u = 2^-53, |y| <= (pi/4)(1 + 3u)
    and |e| <= 2.01 u |y|.  `_cos_sin` then evaluates, with z = fl(y^2),

      cos: w + (((w_lo - z_lo / 2) - e (y + T_s)) + z^2 P_c(z)), where
           y^2 = z + z_lo exactly (Dekker) and w + w_lo = 1 - z/2 exactly
           (Fast2Sum), P_c = sum_{j=2}^{8} (-1)^j z^(j-2) / (2j)!;
      sin: y + (T_s + e cos), T_s = (y z) P_s(z),
           P_s = sum_{j=0}^{6} (-1)^(j+1) z^j / (2j+3)!,

    both polynomials by Horner's rule.  The scale factor is sum_i w_i of the
    rotated characters, summed in atom order, and the product over s is taken
    by `_tree_product`.  Every step is a separate numpy `multiply`, `add` or
    `subtract`, or a Python float operation for the per-scale constants:
    each is one correctly rounded IEEE 754 binary64 operation, so no libm
    accuracy and no fused multiply-add is assumed.

    Error, with k atoms, as complex magnitudes throughout (u = 2^-53;
    terms of order u^2 are collected at the end):

    * character.  Each part of cos and sin is rounded once at the end: u
      |cos phi| and u |sin phi|, together at most u.  Beyond that, at the
      worst offset |y| = pi/4 (every term below grows with |y|):
      - cos: Horner's rule perturbs the coefficient of z^(j-2) by at most
        gamma_(2j-3) (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2nd ed., 2002, eq. (5.3)), its rounding, z^2 and the
        product add gamma_3: sum_j gamma_2j |y|^2j / (2j)! <= 0.0655 u; P_c
        reads z for y^2: sum_j j |y|^2j / (2j)! u <= 0.0328 u; the omitted
        terms from y^18 on: (pi/4)^18 / 18! <= 0.0182 u; the last inner
        addition: u |z^2 P_c| <= 0.0159 u; the rest is exact or O(u^2).
        Together 0.1324 u.
      - sin: in T_s the term of y^(2j+3) carries Horner's gamma_(2j+1), the
        rounding of its coefficient, of y z and of the product, and the
        rounding of z to the power j + 1: sum_j gamma_(3j+5) |y|^(2j+3) /
        (2j+3)! <= 0.4241 u; the omitted terms from y^17 on: (pi/4)^17 / 17!
        <= 0.4170 u; the inner addition: u |T_s + e cos| <= 0.0808 u;
        e cos(phi) - e cos and e^2 are O(u^2).  Together 0.9219 u.
      So the character is within eta_c = (1 + |(0.1324, 0.9219)|) u
      < 1.94 u of e(n A_i / M).  The degrees are the least whose omitted
      terms fit: a term less (y^16 in cos, y^15 in sin) would be off by
      9.0 u or 183 u at |y| = pi/4.
    * weights: |w^_i - w_i| <= u w_i, at most u in total as |e| = 1.
    * accumulation: k products and k - 1 additions in order, each rounded
      relative to a partial sum of magnitude at most sum_i w^_i |e^_i|: at
      most k u.  With k = 1 (weight exactly 1) the weights and the
      accumulation are exact.
    * product: each complex multiplication of the tree, four products, one
      subtraction and one addition, is off by at most sqrt(5) u |a| |b|
      (Brent, Percival & Zimmermann, Math. Comp. 76, 2007); the factors have
      modulus at most 1, and S + 1 factors take S multiplications.

    So one factor is within eta = eta_c + (k + 1) u <= (k + 2.94) u of the
    exact average (eta_c <= 1.94 u for k = 1), to first order; the terms of
    order u^2 add less than (k + 10)^2 u^2.  The product of S + 1 factors of
    modulus at most 1 is then within e^x - 1 <= x + x^2 (x <= 1) of the
    exact one, x = (S + 1)(eta + (k + 10)^2 u^2 + sqrt(5) u): a tree node
    whose children are within relative bounds a and b of theirs is within
    (1 + a)(1 + b)(1 + sqrt(5) u) - 1 of its own.  To first order x is
    (S + 1)(k + 5.18) u <= (S + 1)(2k + 4) u for k >= 2, and (S + 1) 4.18 u
    <= (S + 1) 6 u for k = 1, with at least 0.82 u (S + 1) to spare, which
    covers the (k + 10)^2 u^2 (S + 1) for k < 2^26; and x^2 <= (2k + 4) u
    when (S + 1)^2 (2k + 4) <= 2^53, which holds for every depth float64
    tail bounds produce (S + 1 <= 2^12) at k < 2^26.  So the stated
    `(S + 2)(k + 2) 2^-52` = (S + 2)(2k + 4) u covers the float64
    evaluation.  Below 2^-1000 an angle's square and its split lose
    exactness to underflow, which moves a result by less than 2^-1070.
    """
    quarter, y, e = _angles(data, base, ns, depths)
    cos, sin = _cos_sin(y, e)
    del y, e  # each dropped chunk-sized array lowers the peak memory of the pass
    swap = (quarter & 1) == 1
    re = np.where(swap, sin, cos)
    im = np.where(swap, cos, sin)
    del cos, sin, swap
    np.negative(re, out=re, where=(quarter == 1) | (quarter == 2))
    np.negative(im, out=im, where=quarter >= 2)
    w = data.weights
    re_sum, im_sum = re[0] * w[0], im[0] * w[0]
    for i in range(1, len(w)):
        re_sum, im_sum = re_sum + re[i] * w[i], im_sum + im[i] * w[i]
    return _tree_product(re_sum, im_sum, depths)


def _angles(
    data: _MeasureData, base: int, ns: Sequence[int], depths: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quarter turns q mod 4 and offsets y + e of `_character_products`, as
    arrays indexed [atom, frequency, scale]; scales past a frequency's depth
    hold 0 and 0."""
    width = max(depths) + 1
    scales = _scales(data, abs(base), width)
    fast = sum(1 for scale in scales if scale.modulus < _INT64_MODULUS)  # a prefix: M_s grows with s
    shape = (len(data.numerators), len(ns), width)
    quarter = np.zeros(shape, np.int64)
    y = np.zeros(shape)
    e = np.zeros(shape)
    if fast:
        quarter[:, :, :fast], y[:, :, :fast], e[:, :, :fast] = _int64_angles(data, base, ns, scales[:fast])
    for j, (n, depth) in enumerate(zip(ns, depths)):
        for s in range(fast, depth + 1):
            modulus = scales[s].modulus
            n4 = -4 * n if base < 0 and s % 2 else 4 * n
            for i, a in enumerate(data.numerators):
                quarter[i, j, s], rho = _quarter(n4 * a, modulus)
                y[i, j, s], e[i, j, s] = _double_double(_PI_SCALED * rho, modulus << _PI_SHIFT)
    return quarter, y, e


def _int64_angles(
    data: _MeasureData, base: int, ns: Sequence[int], scales: Sequence[_Scale]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_angles` at scales whose moduli are below 2^53, in int64 and
    Dekker's product."""
    top = 4 * scales[-1].modulus  # every 4 M_s divides it
    values = np.array([[4 * n * a % top for n in ns] for a in data.numerators], np.int64)
    flips = np.array([-1 if base < 0 and s % 2 else 1 for s in range(len(scales))], np.int64)
    moduli = np.array([scale.modulus for scale in scales], np.int64)
    # floor(v / M_s) = q mod 4, as 4 M_s divides v - 4 n A_i
    q, rho = np.divmod(values[:, :, None] * flips, moduli)
    up = 2 * rho > moduli
    x = np.where(up, rho - moduli, rho).astype(np.float64)
    k_hi, k1, k2, k_lo = (np.array(column) for column in list(zip(*scales))[1:])
    c = _SPLIT * x
    x1 = c - (c - x)
    x2 = x - x1
    p = x * k_hi
    return (q + up) & 3, p, ((((x1 * k1 - p) + x1 * k2) + x2 * k1) + x2 * k2) + x * k_lo


def _products(data: _MeasureData, base: int, ns: Sequence[int], depths: Sequence[int]) -> list[complex]:
    """`_character_products` in chunks of about _CHUNK_ELEMENTS elements;
    ns sorted by depth keep the padding of each chunk small."""
    k = len(data.numerators)
    out: list[complex] = []
    start = 0
    while start < len(ns):
        stop, width = start + 1, depths[start] + 1
        while stop < len(ns) and (stop - start + 1) * max(width, depths[stop] + 1) * k <= _CHUNK_ELEMENTS:
            width = max(width, depths[stop] + 1)
            stop += 1
        re, im = _character_products(data, base, ns[start:stop], depths[start:stop])
        out += map(complex, re.tolist(), im.tolist())
        start = stop
    return out


class DiscreteMeasure:
    """Finitely supported probability measure on T^1 with rational data."""

    __slots__ = ("atoms", "weights", "_data")

    def __init__(self, atoms: Sequence[Fraction], weights: Sequence[Fraction]):
        if len(atoms) != len(weights):
            raise ValueError("atoms and weights must align")
        merged: dict[Fraction, Fraction] = {}
        for a, w in zip(atoms, weights):
            w = Fraction(w)
            if w < 0:
                raise ValueError("weights must be nonnegative")
            if w == 0:
                continue
            key = frac(Fraction(a))
            merged[key] = merged.get(key, _Q0) + w
        if not merged or sum(merged.values()) != 1:
            raise ValueError("weights must sum to 1")
        items = sorted(merged.items())
        self.atoms = tuple(a for a, _ in items)
        self.weights = tuple(w for _, w in items)
        self._data = _measure_data(self.atoms, self.weights)

    @classmethod
    def point_mass(cls, atom: Fraction = _Q0) -> "DiscreteMeasure":
        return cls([atom], [Fraction(1)])

    @classmethod
    def uniform(cls, atoms: Sequence[Fraction]) -> "DiscreteMeasure":
        k = len(atoms)
        return cls(list(atoms), [Fraction(1, k)] * k)

    def coefficients(self) -> "CoefficientFunction":
        return CoefficientFunction(name="discrete", batch=lambda ns: _discrete_values(self, ns))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a}:{w}" for a, w in zip(self.atoms, self.weights))
        return f"DiscreteMeasure({pairs})"


def fourier_discrete(measure: DiscreteMeasure, n: int) -> FourierValue:
    """Character average sum_j w_j e^{2 pi i n a_j} in float64.

    exact_zero fires on the equal-weight two-atom criterion
    n (a2 - a1) in 1/2 + Z.  The certified error (k + 2) 2^-52 bounds the
    float64 evaluation (see `_character_products`).
    """
    return _discrete_values(measure, [n])[0]


def _discrete_values(measure: DiscreteMeasure, ns: Sequence[int]) -> list[FourierValue]:
    """`fourier_discrete` at every n of ns, in one batch that evaluates each
    distinct |n| once.  An n < 0 takes the conjugate of the value at -n with
    the same error and exact-zero flag, which is exact for a real measure;
    at tie offsets it differs by a few ulps from a direct evaluation at -n
    (see `_selfsimilar_values`)."""
    data = measure._data
    values = {}
    live = []
    for n in sorted({abs(n) for n in ns}):
        if n == 0:
            values[n] = _ONE
        elif data.gap is not None and _half_odd(2 * data.gap[0] * n, data.gap[1]):
            values[n] = _ZERO
        else:
            live.append(n)
    error = (len(measure.atoms) + 2) * 2.0 ** -52
    for n, value in zip(live, _products(data, 1, live, [0] * len(live))):
        values[n] = FourierValue(value, error, exact_zero=False)
    return _mirrored(ns, values)


@dataclass(frozen=True)
class SelfSimilarSpec:
    """Bernoulli measure on the attractor of x -> x/D + Delta_i (1-dim).

    The Fourier transform is the infinite product over scales s >= 0 of the
    one-step character averages sum_i p_i e^{2 pi i n D^-s Delta_i}.
    """

    base: int
    atoms: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if abs(self.base) < 2:
            raise ValueError("base must have absolute value >= 2")
        if len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must align")
        if any(w <= 0 for w in self.weights) or sum(self.weights) != 1:
            raise ValueError("weights must be positive and sum to 1")

    @classmethod
    def create(cls, base: int, atoms, weights=None) -> "SelfSimilarSpec":
        atoms = tuple(Fraction(a) for a in atoms)
        if weights is None:
            weights = [Fraction(1, len(atoms))] * len(atoms)
        return cls(int(base), atoms, tuple(Fraction(w) for w in weights))

    @cached_property
    def _data(self) -> _MeasureData:
        return _measure_data(self.atoms, self.weights)

    def coefficients(self, tol: float = 1e-9) -> "CoefficientFunction":
        return CoefficientFunction(name="selfsimilar", batch=lambda ns: _selfsimilar_values(self, ns, tol))


def _depths(leads: Sequence[float], d_abs: int, tol: float) -> list[int]:
    """For each lead of a nondecreasing list, the smallest S with
    sum_{s > S} lead |D|^-s < log1p(tol).  S does not decrease as the lead
    grows, so one pass serves the list, each search starting at the last S."""
    budget = math.log1p(tol)
    s_cut = 0
    out = []
    for lead in leads:
        while lead * d_abs ** (-s_cut - 1) / (1.0 - 1.0 / d_abs) >= budget:
            s_cut += 1
        out.append(s_cut)
    return out


def _lead(data: _MeasureData, n: int) -> float:
    """2 pi |n| max|Delta|: the scale-s factor is within lead |D|^-s of 1."""
    return 2.0 * math.pi * abs(n) * data.delta_max


def truncation_depth(spec: SelfSimilarSpec, n: int, tol: float) -> int:
    """Last scale S that `fourier_selfsimilar` keeps for frequency n: the
    scale-s factor is within lead |D|^-s of 1, lead = 2 pi |n| max|Delta|, and
    S is the smallest depth whose neglected tail stays below log1p(tol)."""
    return _depths([_lead(spec._data, n)], abs(spec.base), tol)[0]


def fourier_selfsimilar(spec: SelfSimilarSpec, n: int, tol: float = 1e-9) -> FourierValue:
    """Truncated infinite-product Fourier coefficient with certified tail.

    The factor at scale s differs from 1 by at most 2 pi |n| max|Delta| |D|^-s,
    so the truncation point S (`truncation_depth`) is chosen to make the
    neglected tail < tol.  exact_zero fires when an equal-weight two-atom
    factor vanishes exactly.  The S + 1 factors are float64 character
    averages; `_character_products` derives why their product stays within
    the rounding term (S + 2)(k + 2) 2^-52 of the certified error.
    """
    return _selfsimilar_values(spec, [n], tol)[0]


def _exact_zero(data: _MeasureData, n: int, d_abs: int) -> bool:
    """Some factor is an equal-weight antipodal pair: |n| gap / |D|^j >= 1/2
    lies in 1/2 + Z for some scale j."""
    if data.gap is None:
        return False
    num, den = data.gap
    twice = 2 * abs(num * n)
    while twice >= den:
        if _half_odd(twice, den):
            return True
        den *= d_abs
    return False


def _selfsimilar_values(spec: SelfSimilarSpec, ns: Sequence[int], tol: float) -> list[FourierValue]:
    """`fourier_selfsimilar` at every n of ns, in one batch that evaluates
    each distinct |n| once, in increasing order.

    Every measure here is real, so mu^(-n) = conj mu^(n): an n < 0 takes the
    conjugate of the value at -n, with the same error and exact-zero flag
    (exact zeros, truncation depths and errors depend on |n| only).  The
    bound stays exact, as |conj v - mu^(-n)| = |v - mu^(n)|.  A direct
    evaluation at -n would give the conjugate bit for bit wherever
    `_character_products` reduces the angles of -n to the negated offsets of
    n: its Taylor polynomials are even and odd, and rounding to nearest is
    symmetric.  The exception is a tie offset, 4 n A_i = M_s / 2 mod M_s,
    which rounds to +M_s / 2 for either sign; there the two evaluations
    differ by a few ulps (at most 2.1e-16 in the cases of
    tests/test_fourier_float64.py, against errors near 7e-13), well inside
    the certified error."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    data = spec._data
    d_abs = abs(spec.base)
    values = {}
    live = []
    for n in sorted({abs(n) for n in ns}):
        if n == 0 or data.trivial:
            values[n] = _ONE
        elif _exact_zero(data, n, d_abs):
            values[n] = _ZERO
        else:
            live.append(n)
    leads = [_lead(data, n) for n in live]
    depths = _depths(leads, d_abs, tol)
    products = _products(data, spec.base, live, depths)
    atoms = len(spec.atoms)
    for n, lead, s_cut, value in zip(live, leads, depths, products):
        tail_err = math.expm1(lead * d_abs ** (-s_cut - 1) / (1.0 - 1.0 / d_abs))
        round_err = (s_cut + 2) * (atoms + 2) * 2.0 ** -52
        values[n] = FourierValue(value, tail_err + round_err, exact_zero=False)
    return _mirrored(ns, values)


def _mirrored(ns: Sequence[int], values: dict[int, FourierValue]) -> list[FourierValue]:
    """The coefficients at ns of a real measure from `values`, the ones at
    |n|: n < 0 takes the conjugate of the value at -n.  A zero part keeps
    its sign, so 1 and 0 are their own conjugates.  For the imaginary part
    that is nearly always the sign a direct evaluation at -n gives; there a
    zero real part from quarter turns (+-i) can carry the other sign."""
    return [values[n] if n >= 0 else _conjugate(values[-n]) for n in ns]


def _conjugate(v: FourierValue) -> FourierValue:
    if not v.value.imag:
        return v
    return FourierValue(v.value.conjugate(), v.error, v.exact_zero)


class CoefficientFunction:
    """Lazy, memoized map n -> FourierValue, given by a function of one index
    or by `batch`, a function from a list of indices to their values."""

    def __init__(
        self,
        fn: Callable[[int], FourierValue] | None = None,
        name: str = "",
        batch: Callable[[Sequence[int]], list[FourierValue]] | None = None,
    ):
        if batch is None:
            if fn is None:
                raise ValueError("give fn or batch")
            batch = lambda ns: [fn(n) for n in ns]  # noqa: E731
        self._batch = batch
        self._memo: dict[int, FourierValue] = {}
        self.name = name

    def __call__(self, n: int) -> FourierValue:
        cached = self._memo.get(n)
        if cached is None:
            cached = self._memo[n] = self._batch([n])[0]
        return cached

    def table(self, ns: Sequence[int]) -> list[FourierValue]:
        """The values at ns, in order; the indices not memoized yet are
        evaluated in one batch."""
        missing = [n for n in dict.fromkeys(ns) if n not in self._memo]
        if missing:
            self._memo.update(zip(missing, self._batch(missing)))
        return [self._memo[n] for n in ns]

    def evaluated(self) -> dict[int, FourierValue]:
        """Every coefficient computed so far, by index."""
        return dict(self._memo)

    @classmethod
    def haar(cls) -> "CoefficientFunction":
        return cls(lambda n: _ONE if n == 0 else _ZERO, name="haar")


# a rational upper bound on sqrt(5) (2236068^2 > 5 10^12): the relative
# error of a complex product by the componentwise formula, with or without
# one fused multiply-add per part, is at most sqrt(5) u, u = 2^-53 (Brent,
# Percival & Zimmermann, Math. Comp. 76, 2007)
_SQRT5_UP = Fraction(2236068, 1000000)
# factors whose complex products are exact: each part of x * y is then one
# exact product, or a sum with an exact zero
_EXACT_FACTORS = (0, 1, -1, 1j, -1j)


def _modulus_up(z: complex) -> Fraction:
    """An upper bound on |z| within a relative 2^-63 of it, with no libm:
    |z| = sqrt(p / q) for the exact Fraction p / q of re^2 + im^2, and
    sqrt(p q 4^t) / (q 2^t) is rounded up by an integer square root, with t
    such that p q 4^t has at least 128 bits."""
    square = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
    t = max(0, 64 - (square.numerator * square.denominator).bit_length() // 2)
    scaled = (square.numerator * square.denominator) << (2 * t)
    root = math.isqrt(scaled)
    return Fraction(root + (root * root < scaled), square.denominator << t)


def _product_error(a: FourierValue, b: FourierValue) -> float:
    """Certified error of the computed a.value * b.value against the product
    of the two exact coefficients: |a| e_b + |b| e_a + e_a e_b for the
    inputs' errors, plus sqrt(5) u |a| |b| for the rounding of the complex
    product unless a factor is 0, +-1 or +-i.  The moduli are bounded from
    above by `_modulus_up`, the sum is exact over Fractions and rounded
    upward once, so the bound assumes nothing of libm."""
    size_a, size_b = _modulus_up(a.value), _modulus_up(b.value)
    err_a, err_b = Fraction(a.error), Fraction(b.error)
    err = size_a * err_b + size_b * err_a + err_a * err_b
    if a.value not in _EXACT_FACTORS and b.value not in _EXACT_FACTORS:
        err += _SQRT5_UP * size_a * size_b / 2**53
    up = float(err)
    return up if up >= err else math.nextafter(up, math.inf)


def convolve(fa: CoefficientFunction, fb: CoefficientFunction) -> CoefficientFunction:
    """Coefficients of the convolution: pointwise product, with the error of
    _product_error; exact zeros OR."""

    def values(ns: Sequence[int]) -> list[FourierValue]:
        firsts = fa.table(ns)
        live = [n for n, a in zip(ns, firsts) if not a.exact_zero]
        seconds = dict(zip(live, fb.table(live)))
        out = []
        for n, a in zip(ns, firsts):
            b = _ZERO if a.exact_zero else seconds[n]
            if b.exact_zero:
                out.append(_ZERO)
                continue
            out.append(FourierValue(a.value * b.value, _product_error(a, b), exact_zero=False))
        return out

    return CoefficientFunction(name=f"({fa.name})*({fb.name})", batch=values)


def classify_index(w: int) -> tuple[int, str, int]:
    """Unique (k, type, m) with w = 4^k (2m+1) or w = 4^k (4m+2), w != 0."""
    if w == 0:
        raise ValueError("index must be nonzero")
    k = 0
    while w % 4 == 0:
        w //= 4
        k += 1
    if w % 2:
        return k, "odd", (w - 1) // 2
    return k, "twice_odd", (w - 2) // 4


def is_haar_up_to(f: CoefficientFunction, n_max: int) -> bool:
    """True iff f(0) = 1 and every 1 <= |n| <= n_max coefficient is provably 0.

    The indices +-n are read through `f.table` in doubling blocks, n in
    [1, 2), [2, 4), [4, 8), ..., so that a fresh convolution evaluates about
    log2(n_max) batches rather than 2 n_max single indices; the check stops
    after the first block that holds a coefficient not provably 0, so a
    measure that fails at n = 1 evaluates only +-1.  The verdict is that of
    the index-by-index loop it replaces (`tests/reference_fourier.py`), save
    that f(0) passes only when |f(0) - 1| <= error holds exactly, so a NaN
    value or error at f(0) gives False."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    zero = f(0)
    if _modulus_sign(zero.value, zero.error, 1.0) > 0:
        return False
    low = 1
    while low <= n_max:
        high = min(2 * low, n_max + 1)
        if not all(v.provably_zero() for v in f.table([m for n in range(low, high) for m in (n, -n)])):
            return False
        low = high
    return True


# The two checks below evaluate every index they name, with no early exit:
# `diagnostics` reports how many coefficients a run evaluated.


def family_exact_zero(f: CoefficientFunction, pattern: str, k_max: int, m_max: int) -> bool:
    """True iff f vanishes exactly at every 4^k (2m+1) (pattern 'odd') or
    4^k (4m+2) ('twice_odd') with 0 <= k <= k_max and |m| <= m_max."""
    ns = [
        4 ** k * ((2 * m + 1) if pattern == "odd" else (4 * m + 2))
        for k in range(k_max + 1)
        for m in range(-m_max, m_max + 1)
    ]
    return all(v.exact_zero for v in f.table(ns))


def routing_consistent(fa: CoefficientFunction, fb: CoefficientFunction, n_max: int) -> bool:
    """True iff `classify_index` routes every 1 <= n <= n_max to an exact zero:
    odd-type indices to the measure that vanishes at 1, twice-odd ones to
    the measure that vanishes at 2 (the Haar counterexample's factorisation)."""
    odd_killer = fa if fa(1).exact_zero else fb
    even_killer = fa if fa(2).exact_zero else fb
    ok = odd_killer(1).exact_zero and even_killer(2).exact_zero
    patterns = {n: classify_index(n)[1] for n in range(1, n_max + 1)}
    odd = odd_killer.table([n for n, p in patterns.items() if p == "odd"])
    even = even_killer.table([n for n, p in patterns.items() if p != "odd"])
    return ok and all(v.exact_zero for v in odd + even)


def diagnostics(spec: SelfSimilarSpec, coeffs: CoefficientFunction, tol: float) -> dict:
    """How one measure's coefficients were computed: how many, the deepest
    truncated product among them (None when none needed a product), and by
    which character evaluator."""
    evaluated = coeffs.evaluated()
    products = [abs(n) for n, v in evaluated.items() if n and not v.exact_zero]
    return {
        "coefficients": len(evaluated),
        "max_depth": truncation_depth(spec, max(products), tol) if products else None,
        "evaluator": EVALUATOR,
    }
