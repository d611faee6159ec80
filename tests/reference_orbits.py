"""Step-by-step fixed-point orbit loops, kept as references for the engine.

These are the original O(N^2) loops: every step multiplies, adds and masks
the whole p-bit state.  The library's divide-and-conquer engine must agree
with them (see test_orbit_engine.py); nothing in src/ imports this module.

`walk_leaf` is the engine's plain loop as it was when it advanced the
truncation error t step by step; fractal._walk_leaf bounds t once per chunk
and must never store a point with less than this loop's t.

`digits_run` is the engine's digit run as it was before its leaves became
lanes (fractal._digit_lanes): the same schedule of splits, jumps and
truncations (fractal._solve), with every leaf stepped by `digit_leaf`, the
per-step loop.  The lanes must give its digits, point bytes, error bound,
truncation error and exceptions exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from toruswalk import fractal
from toruswalk.exactcore import NearIntegerError, TorusPoint
from toruswalk.fractal import (
    AffineEndo,
    AffineIFS,
    OrbitSample,
    PrecisionExceededError,
    Word,
    _error_to_float,
    _matvec,
    _orbit_error_bound,
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


def walk_leaf(run, lo, hi, state, q, t, e) -> None:
    """fractal._walk_leaf with the per-step recursion t <- amp_a t + inexact_a;
    it stores its points through fractal._emit."""
    shift = run.p - q
    offs = [[b >> shift for b in off] for off in run.offsets]
    inexact = [int(shift > z) for z in run.zeros]
    amps = run.amps
    mats = run.mats
    mask = (1 << q) - 1
    take = q - 53
    d = len(state)
    if d == 1:
        bs = [off[0] for off in offs]
    elif d == 2:
        flat = [(*m[0], *m[1], *off) for m, off in zip(mats, offs)]
    for start in range(lo, hi, fractal._CHUNK_STEPS):
        stop = min(hi, start + fractal._CHUNK_STEPS)
        seq = run.letters[start:stop].tolist()
        out = []
        if d == 1:
            s = state[0]
            for a in seq:
                s = (mats[a] * s + bs[a]) & mask
                t = t * amps[a] + inexact[a]
                out.append(s >> take)
            state = [s]
        elif d == 2:
            x, y = state
            for a in seq:
                m00, m01, m10, m11, b0, b1 = flat[a]
                x, y = (m00 * x + m01 * y + b0) & mask, (m10 * x + m11 * y + b1) & mask
                t = t * amps[a] + inexact[a]
                out.append(x >> take)
                out.append(y >> take)
            state = [x, y]
        else:
            for a in seq:
                state = [(x + b) & mask for x, b in zip(_matvec(mats[a], state), offs[a])]
                t = t * amps[a] + inexact[a]
                out.extend([x >> take for x in state])
        fractal._emit(run, start, stop, out, t, q)


def digit_leaf(run, lo, hi, state, q, t, e) -> None:
    """fractal._digit_leaf as the only leaf of a digit run: digits appended
    to the list run.digits, points stored through fractal._emit."""
    base = run.mats[0]
    mask = (1 << q) - 1
    take = q - 53
    s = state[0]
    thr = t + e
    digits = run.digits
    for start in range(lo, hi, fractal._CHUNK_STEPS):
        stop = min(hi, start + fractal._CHUNK_STEPS)
        out = []
        for n in range(start, stop):
            s *= base
            thr *= base
            digit = s >> q
            s &= mask
            if s < thr or s > mask - thr:
                if q == run.p and not t:
                    raise NearIntegerError(
                        f"digit {n + 1} not certifiable at {q} bits: the orbit point lies "
                        f"within its certified error of a base-{base} rational, and a "
                        "higher precision helps only if it is not one"
                    )
                fractal._emit(run, start, n, out, t * base ** (n - lo), q)
                power = base ** n
                exact = (run.fixed * power) & ((1 << run.p) - 1)
                return digit_leaf(run, n, hi, [exact], run.p, 0, run.fixed_err * power)
            digits.append(digit)
            out.append(s >> take)
        fractal._emit(run, start, stop, out, t * base ** (stop - lo), q)


def digits_run(
    fixed: int, err_ulps: int, bits: int, base: int, count: int
) -> tuple[list[int], OrbitSample, float]:
    """fractal.digits_from_fixed with every leaf stepped by digit_leaf and
    the spread check of fractal._run: (digits, sample, the run's largest
    truncation error)."""
    if base < 2:
        raise ValueError("base must be >= 2")
    run = fractal._Orbit([base], [(0,)], np.zeros(count, dtype=np.int8), bits, digit_leaf)
    run.digits = []
    run.fixed = fixed & ((1 << bits) - 1)
    run.fixed_err = max(1, err_ulps)
    amp = fractal._amp_bits(run, 0, count)
    state = fractal._truncate([run.fixed], bits, 0, run.fixed_err, math.ceil(amp) + run.guard)
    fractal._solve(run, 0, count, amp, *state)
    if run.spread > fractal.TRUNCATION_SLACK:
        raise PrecisionExceededError(
            f"truncation error {run.spread:.3e} exceeds the engine's slack"
        )
    bound = _orbit_error_bound(run.fixed_err * base ** count, bits)
    return run.digits, OrbitSample(run.points, bound, bits), run.spread
