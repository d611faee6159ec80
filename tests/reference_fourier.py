"""Earlier Fourier paths of `spectral`, kept as oracles for the differential
tests.

`fourier_discrete` and `fourier_selfsimilar` are the mpmath implementations
that came before the float64 character evaluator: every factor is a 96-bit
mpmath character sum, rounded once to a complex.  `truncated_product`
multiplies the same factors at 200 bits without rounding in between, which
isolates the float64 rounding of the fast path from the truncation of the
infinite product.  It and `discrete_sum` add the weights of atoms at the
same angle exactly before rounding (`_merged`), so a point mass, which the
fast path states as exactly 1, is exactly 1 there too.

`libm_fourier_discrete` and `libm_fourier_selfsimilar` are the float64 path
that came before the batched Taylor evaluator: one coefficient per call, the
same integer reduction to an offset of at most 1/8 turn, libm `cos`/`sin` of
that offset and Python complex products (`libm_character_average`).  The
current path must give the same exact-zero flags and bitwise the same
certified errors, and values within the sum of the two stated errors.

`is_haar_up_to` is the Haar check that came before the block-wise one: one
index at a time, f(n) then f(-n) for n = 1, 2, ..., stopping at the first
coefficient that is not provably zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import mpmath

from toruswalk.spectral import (
    CoefficientFunction,
    DiscreteMeasure,
    FourierValue,
    SelfSimilarSpec,
    _PI_SCALED,
    _PI_SHIFT,
    _half_odd,
    truncation_depth,
)

_HALF = Fraction(1, 2)


def _frac(q: Fraction) -> Fraction:
    return q - (q.numerator // q.denominator)


def _mp_character_sum(pairs: Iterable[tuple[Fraction, Fraction]]) -> mpmath.mpc:
    """sum w * e^{2 pi i a} for rational (w, a) at the current precision."""
    total = mpmath.mpc(0)
    two_pi = 2 * mpmath.pi
    for w, a in pairs:
        af = _frac(a)
        ang = two_pi * mpmath.mpf(af.numerator) / af.denominator
        weight = mpmath.mpf(w.numerator) / w.denominator
        total += weight * mpmath.mpc(mpmath.cos(ang), mpmath.sin(ang))
    return total


def _merged(pairs: Iterable[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """The (w, a) of a character sum with the weights at each angle a mod 1
    added exactly."""
    total: dict[Fraction, Fraction] = {}
    for w, a in pairs:
        af = _frac(a)
        total[af] = total.get(af, Fraction(0)) + w
    return [(w, a) for a, w in total.items()]


def character_sum(pairs: Iterable[tuple[Fraction, Fraction]], prec: int = 96) -> complex:
    """sum w * e^{2 pi i a} for rational (w, a), at `prec` working bits."""
    with mpmath.workprec(prec):
        return complex(_mp_character_sum(pairs))


def fourier_discrete(measure: DiscreteMeasure, n: int) -> FourierValue:
    if n == 0:
        return FourierValue(1.0 + 0j, 0.0, exact_zero=False)
    if len(measure.atoms) == 2 and measure.weights[0] == measure.weights[1]:
        gap = _frac((measure.atoms[1] - measure.atoms[0]) * n)
        if gap == _HALF:
            return FourierValue(0j, 0.0, exact_zero=True)
    val = character_sum((w, a * n) for a, w in zip(measure.atoms, measure.weights))
    return FourierValue(val, (len(measure.atoms) + 2) * 2.0 ** -52, exact_zero=False)


def fourier_selfsimilar(spec: SelfSimilarSpec, n: int, tol: float = 1e-9) -> FourierValue:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n == 0:
        return FourierValue(1.0 + 0j, 0.0, exact_zero=False)

    d_abs = abs(spec.base)
    delta_max = max(abs(a) for a in spec.atoms)
    if delta_max == 0:
        return FourierValue(1.0 + 0j, 0.0, exact_zero=False)

    if len(spec.atoms) == 2 and spec.weights[0] == spec.weights[1]:
        gap = (spec.atoms[1] - spec.atoms[0]) * n
        while abs(gap) >= _HALF:
            if (gap - _HALF).denominator == 1:
                return FourierValue(0j, 0.0, exact_zero=True)
            gap /= spec.base

    lead = 2.0 * math.pi * abs(n) * float(delta_max)
    budget = math.log1p(tol)
    s_cut = 0
    while lead * d_abs ** (-s_cut - 1) / (1.0 - 1.0 / d_abs) >= budget:
        s_cut += 1

    prod = 1.0 + 0j
    scale = Fraction(n)
    for _ in range(s_cut + 1):
        factor = character_sum(
            ((w, a * scale) for a, w in zip(spec.atoms, spec.weights))
        )
        prod *= factor
        scale /= spec.base
    tail_err = math.expm1(lead * d_abs ** (-s_cut - 1) / (1.0 - 1.0 / d_abs))
    round_err = (s_cut + 2) * (len(spec.atoms) + 2) * 2.0 ** -52
    return FourierValue(prod, tail_err + round_err, exact_zero=False)


def libm_character_average(
    numerators, weights, n: int, modulus: int, scales: int = 1, base: int = 1
) -> complex:
    """prod_{0 <= s < scales} sum_i w_i e(n A_i / (modulus base^s)) by the
    octant reduction and libm `cos`/`sin`, one scale after the other."""
    d_abs = abs(base)
    prod = 1.0 + 0j
    for _ in range(scales):
        re = im = 0.0
        n4 = 4 * n
        half = modulus >> 1
        scaled = modulus << _PI_SHIFT
        for a, w in zip(numerators, weights):
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
        if base < 0:
            n = -n
    return prod


def libm_fourier_discrete(measure: DiscreteMeasure, n: int) -> FourierValue:
    if n == 0:
        return FourierValue(1.0 + 0j, 0.0, exact_zero=False)
    data = measure._data
    if data.gap is not None and _half_odd(2 * abs(data.gap[0] * n), data.gap[1]):
        return FourierValue(0j, 0.0, exact_zero=True)
    val = libm_character_average(data.numerators, data.weights, n, data.modulus)
    return FourierValue(val, (len(measure.atoms) + 2) * 2.0 ** -52, exact_zero=False)


def libm_fourier_selfsimilar(spec: SelfSimilarSpec, n: int, tol: float = 1e-9) -> FourierValue:
    if not tol > 0:
        raise ValueError("tol must be positive")
    if n == 0:
        return FourierValue(1.0 + 0j, 0.0, exact_zero=False)
    data = spec._data
    if data.trivial:
        return FourierValue(1.0 + 0j, 0.0, exact_zero=False)
    d_abs = abs(spec.base)
    if data.gap is not None:
        num, den = data.gap
        twice = 2 * abs(num * n)
        while twice >= den:
            if _half_odd(twice, den):
                return FourierValue(0j, 0.0, exact_zero=True)
            den *= d_abs
    lead = 2.0 * math.pi * abs(n) * data.delta_max
    budget = math.log1p(tol)
    s_cut = 0
    while lead * d_abs ** (-s_cut - 1) / (1.0 - 1.0 / d_abs) >= budget:
        s_cut += 1
    prod = libm_character_average(data.numerators, data.weights, n, data.modulus, s_cut + 1, spec.base)
    tail_err = math.expm1(lead * d_abs ** (-s_cut - 1) / (1.0 - 1.0 / d_abs))
    round_err = (s_cut + 2) * (len(spec.atoms) + 2) * 2.0 ** -52
    return FourierValue(prod, tail_err + round_err, exact_zero=False)


def truncated_product(
    spec: SelfSimilarSpec, n: int, tol: float, prec: int = 200
) -> mpmath.mpc:
    """The factors 0..S of `fourier_selfsimilar` multiplied at `prec` bits;
    S = truncation_depth(spec, n, tol)."""
    with mpmath.workprec(prec):
        prod = mpmath.mpc(1)
        scale = Fraction(n)
        for _ in range(truncation_depth(spec, n, tol) + 1):
            prod *= _mp_character_sum(
                _merged((w, a * scale) for a, w in zip(spec.atoms, spec.weights))
            )
            scale /= spec.base
        return prod


def discrete_sum(measure: DiscreteMeasure, n: int, prec: int = 200) -> mpmath.mpc:
    """The character average of `fourier_discrete` at `prec` bits."""
    with mpmath.workprec(prec):
        return _mp_character_sum(_merged((w, a * n) for a, w in zip(measure.atoms, measure.weights)))


def distance(value: complex, exact: mpmath.mpc, prec: int = 200) -> float:
    """|value - exact|, with the subtraction done at `prec` bits."""
    with mpmath.workprec(prec):
        return float(abs(mpmath.mpc(value) - exact))


def is_haar_up_to(f: CoefficientFunction, n_max: int) -> bool:
    """True iff f(0) = 1 and every 1 <= |n| <= n_max coefficient is provably 0."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    zero = f(0)
    if abs(zero.value - 1.0) > zero.error:
        return False
    for n in range(1, n_max + 1):
        if not f(n).provably_zero() or not f(-n).provably_zero():
            return False
    return True
