"""Step-by-step fixed-point orbit loops, kept as references for the engine.

These are the original O(N^2) loops: every step multiplies, adds and masks
the whole p-bit state.  The library's divide-and-conquer engine must agree
with them (see test_orbit_engine.py); nothing in src/ imports this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from toruswalk.exactcore import NearIntegerError, TorusPoint
from toruswalk.fractal import (
    AffineEndo,
    AffineIFS,
    OrbitSample,
    PrecisionExceededError,
    Word,
    _error_to_float,
    precision_budget,
)


def _letters(w) -> tuple[int, ...]:
    """The 1-based letters of a word, unchecked: the callers index with them."""
    return w.letters if isinstance(w, Word) else tuple(int(a) for a in w)


def walk_orbit_fixed(
    endos: Sequence[AffineEndo],
    x0: TorusPoint,
    w,
    guard_bits: int = 96,
    precision_bits: int | None = None,
) -> OrbitSample:
    letters = _letters(w)
    n_steps = len(letters)
    d = endos[0].dimension
    p = precision_bits
    if p is None:
        p = precision_budget([e.linear for e in endos], n_steps, guard_bits)
    if p < 64:
        raise ValueError("precision must be at least 64 bits")
    mask = (1 << p) - 1

    state: list[int] = []
    err = 1
    for s in x0.coords:
        x, e = s.fixed_point(p)
        state.append(x & mask)
        err = max(err, e)
    offsets: list[list[int]] = []
    offset_errs: list[int] = []
    amps: list[int] = []
    for endo in endos:
        off = []
        oe = 1
        for s in endo.offset:
            x, e = s.fixed_point(p)
            off.append(x)
            oe = max(oe, e)
        offsets.append(off)
        offset_errs.append(oe)
        amps.append(max(sum(abs(x) for x in row) for row in endo.linear.rows))

    out = np.empty((n_steps, d), dtype=float)
    errs_bits_limit = 1 << (p - 33)
    take = p - 53
    scale = float(2.0 ** -53)
    rows_list = [e.linear.rows for e in endos]
    for i, a in enumerate(letters):
        rows = rows_list[a - 1]
        off = offsets[a - 1]
        new = []
        for r in range(d):
            acc = off[r]
            row = rows[r]
            for c in range(d):
                m = row[c]
                if m:
                    acc += m * state[c]
            new.append(acc & mask)
        state = new
        err = err * amps[a - 1] + offset_errs[a - 1]
        if err >= errs_bits_limit:
            raise PrecisionExceededError(
                f"error budget exhausted at step {i + 1} of {n_steps}"
            )
        for r in range(d):
            out[i, r] = (state[r] >> take) * scale
    bound = _error_to_float(err, p) + d * 2.0 ** -53
    return OrbitSample(points=out, error_bound=bound, precision_bits=p)


def code_prefix_fixed(ifs: AffineIFS, w, bits: int) -> tuple[int, int]:
    if ifs.dimension != 1:
        raise ValueError("fixed-point coding path is one-dimensional")
    letters = _letters(w)
    d_scalar = ifs.d_matrix.rows[0][0]
    t_fixed = []
    t_err = 1
    for t in ifs.translations:
        x, e = t.coords[0].fixed_point(bits)
        t_fixed.append(x)
        t_err = max(t_err, e)
    v = 0
    err = 0
    for a in reversed(letters):
        div = d_scalar ** ifs.exponents[a - 1]
        v = v // div + t_fixed[a - 1]
        err = -(-err // abs(div)) + 1 + t_err
    return v, err


def digits_from_fixed(
    fixed: int, err_ulps: int, bits: int, base: int, count: int
) -> tuple[list[int], np.ndarray]:
    mask = (1 << bits) - 1
    frac_fixed = fixed & mask
    err = max(1, err_ulps)
    take = bits - 53
    scale = 2.0 ** -53
    digits = []
    points = np.empty(count, dtype=float)
    for i in range(count):
        frac_fixed *= base
        err *= base
        digit = frac_fixed >> bits
        frac_fixed &= mask
        if frac_fixed < err or frac_fixed > mask - err:
            raise NearIntegerError(
                f"digit {i + 1} not certifiable at {bits} bits: the orbit point lies "
                f"within its certified error of a base-{base} rational, and a "
                "higher precision helps only if it is not one"
            )
        digits.append(digit)
        points[i] = (frac_fixed >> take) * scale
    return digits, points
