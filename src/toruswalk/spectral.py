"""Fourier coefficients of atomic and self-similar Bernoulli measures,
convolution, exact-zero detection, and the index classification that routes
every nonzero frequency to a vanishing factor in the Haar counterexample.

Coefficient functions are lazy (n -> value) with memoization; values carry a
certified error bound and an `exact_zero` flag.  Exact zeros are detected
only through the equal-weight two-atom cosine criterion (n * (a2 - a1) *
D^-s in 1/2 + Z), which covers every exact claim needed; all other small
values are reported as numerically below the certified error.

Every character average sum_i w_i e(n a_i D^-s), e(x) = exp(2 pi i x), goes
through one float64 evaluator, `_character_average`, which runs the whole
truncated product of a coefficient (every scale s = 0..S) in one call.  It
reduces each angle with exact integers to the nearest quarter turn plus an
offset of at most 1/8 turn, so quarter turns come out exactly as +-1 and
+-i; the offset goes through one correctly rounded integer division and libm
`cos`/`sin`.  Its docstring derives why the result stays inside the
per-factor rounding allowance `(k + 2) 2^-52` that the certified errors
state.

What depends only on the measure is derived once per measure, not per
coefficient (`_measure_data`: a `DiscreteMeasure` in its constructor, a
`SelfSimilarSpec` on first use): the common denominator Q and numerators
A_i = a_i Q of the atoms, the float weights, float(max |a_i|), and for an
equal-weight pair the gap |a_2 - a_1| as an integer fraction g / h, so that
the exact-zero test runs on integers: 2 |g n| >= h |D|^j and
2 |g n| / (h |D|^j) odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

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
EVALUATOR = "float64-octant"

_Q0 = Fraction(0)


@dataclass(frozen=True)
class FourierValue:
    """One Fourier coefficient with certified absolute error."""

    value: complex
    error: float
    exact_zero: bool = False

    def provably_zero(self) -> bool:
        return self.exact_zero or abs(self.value) < self.error


# floor(pi * 2^124), so that 0 <= pi - _PI_SCALED * 2^-124 < 2^-124
_PI_SCALED = 0x3243F6A8885A308D313198A2E0370734
# an offset rho / (4 M) turns is pi rho / (2 M) = _PI_SCALED rho / (M << 125)
# radians
_PI_SHIFT = 125


class _MeasureData(NamedTuple):
    """What the coefficient functions read of a measure, derived once."""

    modulus: int  # the common denominator Q of the atoms a_i = A_i / Q
    numerators: tuple[int, ...]  # the A_i
    weights: tuple[float, ...]  # the correctly rounded weights
    delta_max: float  # float(max |a_i|)
    trivial: bool  # max |a_i| == 0, so every character is 1
    gap: tuple[int, int] | None  # |a_2 - a_1| as (numerator, denominator), equal-weight pairs only


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
    )


def _half_odd(twice: int, den: int) -> bool:
    """twice / den is an odd integer: half of it lies in 1/2 + Z."""
    quotient, rest = divmod(twice, den)
    return not rest and quotient & 1 == 1


def _character_average(
    numerators: Sequence[int],
    weights: Sequence[float],
    n: int,
    modulus: int,
    scales: int = 1,
    base: int = 1,
) -> complex:
    """prod_{0 <= s < scales} sum_i w_i e(n A_i / (modulus base^s)) in
    float64, for rational weights w_i >= 0 with sum 1 given as their
    correctly rounded floats; one scale (the default) is one average.

    Scale s has angle n A_i / (modulus base^s) = (+-n) A_i / (modulus
    |base|^s): after each scale the modulus grows by |base| and, for a
    negative base, n changes sign.  The product starts at 1 + 0j and takes
    the factors in order of s.

    Each angle is reduced with exact integers: 4 n A_i = q M + rho with
    -M/2 < rho <= M/2 (M = modulus), so e(n A_i / M) = i^q e(rho / (4 M))
    with an offset of at most 1/8 turn.  Quarter turns (rho = 0) give
    exactly 1, i, -1 or -i; otherwise phi = pi rho / (2 M), |phi| <= pi/4,
    comes from one correctly rounded integer division, and the factor i^q
    only swaps and negates cos(phi) and sin(phi).

    Error, with u = 2^-53 and k atoms, as complex magnitudes throughout
    (a component-wise worst case is too coarse for k = 2):

    * angle: phi is computed from pi truncated to 124 bits and rounded once,
      so |phi^ - phi| <= u pi/4 + 2^-126 < 0.79 u; since
      |e(x + d) - e(x)| <= 2 pi |d| (d in turns), i.e. |exp(i a) - exp(i b)|
      <= |a - b|, this moves the character by < 0.79 u.
    * libm: assuming `cos` and `sin` are within 1 ulp (glibc documents at
      most 1 ulp for both), and since |cos(phi^)| and |sin(phi^)| are below 1, each
      component is off by at most 2^-53: < 1.42 u in magnitude.
    * weights: |w^_i - w_i| <= u w_i, at most u in total as |e| = 1.
    * accumulation: each component is a length-k dot product, off by at most
      gamma_k sum_i w^_i |component_i| with gamma_k = k u / (1 - k u); by the
      triangle inequality in C the error vector is at most gamma_k
      sum_i w^_i |e^_i| ~ k u.  With k = 1 (weight exactly 1) the weights
      and the accumulation are exact.

    So one average is within eta_k = (k + 3.21) u of the exact value, to
    first order, which is inside the stated `(k + 2) 2^-52 = (2k + 4) u`
    for every k >= 1.  A product of S + 1 such factors (|factor| <= 1, the
    first multiplication by 1 + 0j exact) adds at most sqrt(5) u per further
    complex multiplication (Brent, Percival & Zimmermann, Math. Comp. 76,
    2007; 2 u when the platform fuses multiply-adds), in all
    (S + 1) (eta_k + 2.24 u) <= (S + 1) (2k + 4) u for k >= 2 and
    (S + 1) 4.45 u <= (S + 1) 6 u for k = 1, which fits the stated
    `(S + 2) (k + 2) 2^-52` with at least 0.55 u (S + 1) to spare for the
    second-order terms; those stay below (S + 1)^2 (20 u)^2, far smaller for
    every depth S <= 1100 that float64 tail bounds can produce.
    """
    d_abs = abs(base)
    flip = base < 0
    pairs = list(zip(numerators, weights))
    prod = 1.0 + 0j
    for _ in range(scales):
        re = im = 0.0
        n4 = 4 * n
        half = modulus >> 1
        scaled = modulus << _PI_SHIFT
        for a, w in pairs:
            quadrant, rho = divmod(n4 * a, modulus)
            if rho > half:
                quadrant += 1
                rho -= modulus
            if rho:
                phi = _PI_SCALED * rho / scaled
                c, s = math.cos(phi), math.sin(phi)
            else:
                c, s = 1.0, 0.0
            quadrant &= 3
            if quadrant == 0:
                re += w * c
                im += w * s
            elif quadrant == 1:
                re -= w * s
                im += w * c
            elif quadrant == 2:
                re -= w * c
                im -= w * s
            else:
                re += w * s
                im -= w * c
        prod *= complex(re, im)
        modulus *= d_abs
        if flip:
            n = -n
    return prod


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

    def fourier(self, n: int) -> FourierValue:
        return fourier_discrete(self, n)

    def coefficients(self) -> "CoefficientFunction":
        return CoefficientFunction(self.fourier, name="discrete")

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a}:{w}" for a, w in zip(self.atoms, self.weights))
        return f"DiscreteMeasure({pairs})"


def fourier_discrete(measure: DiscreteMeasure, n: int) -> FourierValue:
    """Character average sum_j w_j e^{2 pi i n a_j} in float64.

    exact_zero fires on the equal-weight two-atom criterion
    n (a2 - a1) in 1/2 + Z.  The certified error (k + 2) 2^-52 bounds the
    float64 evaluation (see `_character_average`).
    """
    if n == 0:
        return FourierValue(1.0 + 0j, 0.0, exact_zero=False)
    data = measure._data
    if data.gap is not None and _half_odd(2 * abs(data.gap[0] * n), data.gap[1]):
        return FourierValue(0j, 0.0, exact_zero=True)
    val = _character_average(data.numerators, data.weights, n, data.modulus)
    return FourierValue(val, (len(measure.atoms) + 2) * 2.0 ** -52, exact_zero=False)


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

    def fourier(self, n: int, tol: float = 1e-9) -> FourierValue:
        return fourier_selfsimilar(self, n, tol)

    def coefficients(self, tol: float = 1e-9) -> "CoefficientFunction":
        return CoefficientFunction(lambda n: self.fourier(n, tol), name="selfsimilar")


def _depth(lead: float, d_abs: int, tol: float) -> int:
    """Smallest S with sum_{s > S} lead |D|^-s < log1p(tol)."""
    budget = math.log1p(tol)
    s_cut = 0
    while lead * d_abs ** (-s_cut - 1) / (1.0 - 1.0 / d_abs) >= budget:
        s_cut += 1
    return s_cut


def truncation_depth(spec: SelfSimilarSpec, n: int, tol: float) -> int:
    """Last scale S that `fourier_selfsimilar` keeps for frequency n: the
    scale-s factor is within lead |D|^-s of 1, lead = 2 pi |n| max|Delta|, and
    S is the smallest depth whose neglected tail stays below log1p(tol)."""
    lead = 2.0 * math.pi * abs(n) * spec._data.delta_max
    return _depth(lead, abs(spec.base), tol)


def fourier_selfsimilar(spec: SelfSimilarSpec, n: int, tol: float = 1e-9) -> FourierValue:
    """Truncated infinite-product Fourier coefficient with certified tail.

    The factor at scale s differs from 1 by at most 2 pi |n| max|Delta| |D|^-s,
    so the truncation point S (`truncation_depth`) is chosen to make the
    neglected tail < tol.  exact_zero fires when an equal-weight two-atom
    factor vanishes exactly.  The S + 1 factors are float64 character
    averages; `_character_average` derives why their product stays within
    the rounding term (S + 2)(k + 2) 2^-52 of the certified error.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if n == 0:
        return FourierValue(1.0 + 0j, 0.0, exact_zero=False)

    data = spec._data
    if data.trivial:
        return FourierValue(1.0 + 0j, 0.0, exact_zero=False)

    # exact vanishing: some factor is an equal-weight antipodal pair, i.e.
    # |n| gap / |D|^j >= 1/2 lies in 1/2 + Z for some scale j
    d_abs = abs(spec.base)
    if data.gap is not None:
        num, den = data.gap
        twice = 2 * abs(num * n)
        while twice >= den:
            if _half_odd(twice, den):
                return FourierValue(0j, 0.0, exact_zero=True)
            den *= d_abs

    lead = 2.0 * math.pi * abs(n) * data.delta_max
    s_cut = _depth(lead, d_abs, tol)
    prod = _character_average(
        data.numerators, data.weights, n, data.modulus, s_cut + 1, spec.base
    )
    tail_err = math.expm1(lead * d_abs ** (-s_cut - 1) / (1.0 - 1.0 / d_abs))
    round_err = (s_cut + 2) * (len(spec.atoms) + 2) * 2.0 ** -52
    return FourierValue(prod, tail_err + round_err, exact_zero=False)


class CoefficientFunction:
    """Lazy, memoized map n -> FourierValue."""

    def __init__(self, fn: Callable[[int], FourierValue], name: str = ""):
        self._fn = fn
        self._memo: dict[int, FourierValue] = {}
        self.name = name

    def __call__(self, n: int) -> FourierValue:
        cached = self._memo.get(n)
        if cached is None:
            cached = self._fn(n)
            self._memo[n] = cached
        return cached

    def evaluated(self) -> dict[int, FourierValue]:
        """Every coefficient computed so far, by index."""
        return dict(self._memo)

    @classmethod
    def haar(cls) -> "CoefficientFunction":
        return cls(
            lambda n: FourierValue(1.0 + 0j, 0.0)
            if n == 0
            else FourierValue(0j, 0.0, exact_zero=True),
            name="haar",
        )


def convolve(fa: CoefficientFunction, fb: CoefficientFunction) -> CoefficientFunction:
    """Coefficients of the convolution: pointwise product; exact zeros OR."""

    def fn(n: int) -> FourierValue:
        a = fa(n)
        if a.exact_zero:
            return FourierValue(0j, 0.0, exact_zero=True)
        b = fb(n)
        if b.exact_zero:
            return FourierValue(0j, 0.0, exact_zero=True)
        err = abs(a.value) * b.error + abs(b.value) * a.error + a.error * b.error
        return FourierValue(a.value * b.value, err, exact_zero=False)

    name = f"({fa.name})*({fb.name})"
    return CoefficientFunction(fn, name=name)


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
    """True iff f(0) = 1 and every 1 <= |n| <= n_max coefficient is provably 0."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    zero = f(0)
    if abs(zero.value - 1.0) > max(zero.error, 1e-12):
        return False
    for n in range(1, n_max + 1):
        if not f(n).provably_zero() or not f(-n).provably_zero():
            return False
    return True


# The two checks below evaluate every index they name, with no early exit:
# `diagnostics` reports how many coefficients a run evaluated.


def family_exact_zero(f: CoefficientFunction, pattern: str, k_max: int, m_max: int) -> bool:
    """True iff f vanishes exactly at every 4^k (2m+1) (pattern 'odd') or
    4^k (4m+2) ('twice_odd') with 0 <= k <= k_max and |m| <= m_max."""
    ok = True
    for k in range(k_max + 1):
        for m in range(-m_max, m_max + 1):
            n = 4 ** k * ((2 * m + 1) if pattern == "odd" else (4 * m + 2))
            if not f(n).exact_zero:
                ok = False
    return ok


def routing_consistent(fa: CoefficientFunction, fb: CoefficientFunction, n_max: int) -> bool:
    """True iff `classify_index` routes every 1 <= n <= n_max to an exact zero:
    odd-type indices to the measure that vanishes at 1, twice-odd ones to
    the measure that vanishes at 2 (the Haar counterexample's factorisation)."""
    odd_killer = fa if fa(1).exact_zero else fb
    even_killer = fa if fa(2).exact_zero else fb
    ok = odd_killer(1).exact_zero and even_killer(2).exact_zero
    for n in range(1, n_max + 1):
        _, pattern, _ = classify_index(n)
        if not (odd_killer if pattern == "odd" else even_killer)(n).exact_zero:
            ok = False
    return ok


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
