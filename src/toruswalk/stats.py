"""Equidistribution diagnostics: Weyl sums, star discrepancy, digit-block
frequencies, and subsequence/Cesaro comparisons.

Orbit samples carry a per-point error bound from their producer; every
statistic refuses samples whose bound exceeds 2^-32.  Complex means are those
of numpy's pairwise summation over the whole sample, bit for bit, computed a
node of its tree at a time (`_pairwise_sums`), so no pass holds a complex
array of the sample's length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import fractal
from .exactcore import IntMatrix, Scalar, frac
from .fractal import _SCRATCH_BLOCK, AffineIFS, OrbitSample, digits_from_fixed

__all__ = [
    "OrbitSample",
    "SubsequenceReport",
    "character_means",
    "weyl_sums",
    "control_character",
    "star_discrepancy_1d",
    "running_discrepancy",
    "extract_digits",
    "sample_digits",
    "digits_from_fixed",
    "block_frequencies",
    "digit_block_freqs",
    "block_table",
    "all_blocks",
    "subsequence_compare",
    "fourier_table",
]

#: largest bin count `block_frequencies` hands to `np.bincount`
_BINCOUNT_MAX = 1 << 22

#: `running_discrepancy` rows: prefix lengths m = max(1, floor(N i / 20)), i = 1..20
DISCREPANCY_CHECKPOINTS = 20


def _frequency_grid(k_max: int, dim: int) -> list[tuple[int, ...]]:
    """The nonzero k with ||k||_inf <= K, in lexicographic order."""
    if k_max < 1:
        raise ValueError("K must be >= 1")
    return [k for k in itertools.product(range(-k_max, k_max + 1), repeat=dim) if any(k)]


def _pairwise_sums(n: int, node_sums) -> dict:
    """The sums that np.add.reduce of one contiguous complex128 array of n
    elements gives, from node_sums(lo, hi): a dict of np.complex128 sums
    (np.add.reduce) of arrays computed for elements lo..hi-1 alone.

    numpy sums such an array as 2n floats pairwise: a node of f > 128
    floats splits at f // 2 - (f // 2) % 8 floats and adds left + right,
    real and imaginary parts alike.  Nodes of more than _SCRATCH_BLOCK
    elements split here at the same element, lo + (m - m % 8) // 2 for m
    elements, and smaller ones are summed by numpy itself, so every sum is
    numpy's whole-array sum, and no array outlives its node.
    """

    def node(lo: int, hi: int) -> dict:
        m = hi - lo
        if m <= _SCRATCH_BLOCK:
            return node_sums(lo, hi)
        mid = lo + (m - m % 8) // 2
        left, right = node(lo, mid), node(mid, hi)
        return {key: total + right[key] for key, total in left.items()}

    return node(0, n)


def _character_powers(steps, k_max, prefix, factor, out) -> None:
    """Fill out[k] with the sum of factor * prod_{j >= len(prefix)}
    e(x_j)^{k_j} for every half-grid k extending `prefix`; steps[j] holds
    e(x_j) and, where k_j may be negative, its conjugate."""
    j = len(prefix)
    last = j + 1 == len(steps)
    if not last:
        _character_powers(steps, k_max, prefix + (0,), factor, out)
    elif any(prefix):
        out[prefix + (0,)] = np.add.reduce(factor)
    for sign, step in zip((1, -1), steps[j] if any(prefix) else steps[j][:1]):
        power = np.ones_like(step) if factor is None else factor.copy()
        for m in range(1, k_max + 1):
            power *= step
            if last:
                out[prefix + (sign * m,)] = np.add.reduce(power)
            else:
                _character_powers(steps, k_max, prefix + (sign * m,), power, out)


def character_means(sample: OrbitSample, k_max: int) -> dict[tuple[int, ...], complex]:
    """Empirical characters (1/N) sum e(k.x), e(t) = e^{2 pi i t}, for
    0 < ||k||_inf <= K, in lexicographic order of k.

    e(k.x) is the product of the powers e(x_j)^{k_j}: one np.exp per
    coordinate, then one complex multiplication per frequency of the half
    grid (the k whose first nonzero entry is positive), by e(x_j) or, for
    k_j < 0, by its conjugate.  out[-k] is conj(out[k]).  The pass runs over
    the nodes of `_pairwise_sums`, one running power per coordinate alive at
    a time, never a table of powers; each mean is np.mean's over the whole
    sample, the np.complex128 sum divided by N.
    """
    sample._require_accuracy()
    grid = _frequency_grid(k_max, sample.dimension)
    coords = sample.points.T

    def node_sums(lo: int, hi: int) -> dict:
        zs = [np.exp(2j * np.pi * x[lo:hi]) for x in coords]
        # the first entry of a half-grid frequency is never negative
        steps = [(zs[0],)] + [(z, np.conj(z)) for z in zs[1:]]
        sums: dict = {}
        _character_powers(steps, k_max, (), None, sums)
        return sums

    n = sample.size
    half = {k: complex(total / n) for k, total in _pairwise_sums(n, node_sums).items()}
    return {
        k: half[k] if k in half else half[tuple(-c for c in k)].conjugate() for k in grid
    }


def weyl_sums(sample: OrbitSample, k_max: int) -> dict[tuple[int, ...], float]:
    """|S_N(k)| for every nonzero k with ||k||_inf <= K."""
    return {k: abs(v) for k, v in character_means(sample, k_max).items()}


def control_character(sample: OrbitSample, q: int) -> float:
    """|(1/N) sum e^{2 pi i q x}| over the first coordinate: near 1 when the
    orbit stays on the q-th roots of unity.  The value is that of np.mean
    over the whole sample, from the nodes of `_pairwise_sums`."""
    sample._require_accuracy()
    x = sample.points[:, 0]

    def node_sums(lo: int, hi: int) -> dict:
        return {q: np.add.reduce(np.exp(2j * np.pi * q * x[lo:hi]))}

    return float(abs(_pairwise_sums(sample.size, node_sums)[q] / sample.size))


def _checked_coordinates(sample: OrbitSample) -> np.ndarray:
    """The coordinates of a 1-dim sample that the statistics accept."""
    sample._require_accuracy()
    if sample.dimension != 1:
        raise ValueError("star discrepancy implemented for d = 1 only")
    return sample.points[:, 0]


def _sorted_star_discrepancy(xs: np.ndarray) -> float:
    """Star discrepancy of the ascending points xs from their order
    statistics: max over i = 1..n of max(i/n - x_i, x_i - (i - 1)/n).

    The terms run over _SCRATCH_BLOCK points at a time, each from the same
    correctly rounded operations, and max is exact, so the value does not
    depend on the blocks; three block buffers are all the scratch.
    """
    n = len(xs)
    size = min(n, _SCRATCH_BLOCK)
    steps = np.arange(size, dtype=np.float64)
    upper, lower = np.empty(size), np.empty(size)
    worst = -np.inf
    for start in range(0, n, size):
        x = xs[start : start + size]
        up, low = upper[: x.size], lower[: x.size]
        # i / n - x and x - (i - 1) / n, i = start + 1, ...; every i is exact
        np.subtract(np.divide(np.add(steps[: x.size], start + 1, out=up), n, out=up), x, out=up)
        np.subtract(x, np.divide(np.add(steps[: x.size], start, out=low), n, out=low), out=low)
        worst = max(worst, float(np.max(np.maximum(up, low, out=up))))
    return worst


def star_discrepancy_1d(sample: OrbitSample) -> float:
    """Exact order-statistics star discrepancy of a 1-dim sample."""
    return _sorted_star_discrepancy(np.sort(_checked_coordinates(sample)))


def running_discrepancy(sample: OrbitSample) -> list[tuple[int, float]]:
    """Rows (m, D*_m): the star discrepancy of the first m points at
    DISCREPANCY_CHECKPOINTS evenly spaced m.  The last m is N, so the last
    row holds `star_discrepancy_1d(sample)`.

    Each prefix is copied into one buffer and sorted there (numpy's default
    sort), and `_sorted_star_discrepancy` reads it in blocks, so the scratch
    is that buffer, 8 bytes per point, and the blocks.
    """
    xs = _checked_coordinates(sample)
    n = sample.size
    ordered = np.empty(n)
    rows = []
    for i in range(1, DISCREPANCY_CHECKPOINTS + 1):
        m = max(1, (n * i) // DISCREPANCY_CHECKPOINTS)
        x = ordered[:m]
        x[:] = xs[:m]
        x.sort()
        rows.append((m, _sorted_star_discrepancy(x)))
    return rows


# ---------------------------------------------------------------------------
# digits


def _digits_of_rational(value: Fraction, base: int, count: int) -> list[int]:
    num = value.numerator % value.denominator
    den = value.denominator
    out = []
    for _ in range(count):
        num *= base
        out.append(num // den)
        num %= den
    return out


def extract_digits(x: Scalar, base: int, count: int) -> list[int]:
    """First `count` greedy base-D digits of frac(x), certified.

    Rational scalars use exact long division after rejecting D-adic values
    (their expansion terminates, so no digit frequency statement applies).
    Irrational scalars run in fixed point at the orbit precision budget,
    refusing any digit the tracked error cannot certify.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if count < 1:
        raise ValueError("need at least one digit")
    if x.is_rational():
        q = frac(x.rational_part)
        # pow(b, c, 1) == 0 covers q == 0; otherwise den | base^count
        if pow(base, count, q.denominator) == 0:
            raise ValueError(
                f"value is a base-{base} rational terminating within {count} digits"
            )
        return _digits_of_rational(q, base, count)

    bits = fractal.precision_budget([IntMatrix.scalar(base)], count)
    fixed, err = x.fixed_point(bits)
    digits, _ = digits_from_fixed(fixed, err, bits, base, count)
    return digits.tolist()


def sample_digits(
    ifs: AffineIFS, rng: np.random.Generator, count: int, min_bits: int = 0
) -> tuple[np.ndarray, OrbitSample, int]:
    """First `count` base-D digits of a point drawn from a one-dimensional
    IFS's self-similar measure, certified.

    The point is the coded value of a random word at the precision budget
    (raised to `min_bits` if smaller); its digits carry the error that
    code_prefix_fixed states for every point whose coding begins with the
    word, the tail included.  The word length comes from a float estimate,
    not a bound: enough letters that max|t_i| g / ((g - 1) g^n), g = |D|^r_min,
    falls 16 bits below one ulp.  Returns (digits, the orbit frac(D^m x) with
    its per-point bound and precision, word length); the digits are the
    array of np.min_scalar_type(D - 1) that digits_from_fixed returns.
    """
    base = ifs.d_matrix.rows[0][0]
    bits = max(fractal.precision_budget([IntMatrix.scalar(base)], count), min_bits)
    r_min = min(ifs.exponents)
    t_max = max(abs(float(t.coords[0])) for t in ifs.translations)
    diameter = t_max / (1.0 - float(abs(base)) ** -r_min) if t_max > 0 else 1.0
    per_step = r_min * math.log2(abs(base))
    word_len = int((bits + 16 + max(0.0, math.log2(diameter))) / per_step) + 2
    # the letters sample_word draws, as the array it would wrap in a Word
    letters = fractal.walk_letter_stream(ifs.probabilities, rng, word_len)
    fixed, err = fractal.code_prefix_fixed(ifs, letters, bits)
    del letters  # one byte per letter, not needed by the digit run
    digits, sample = digits_from_fixed(fixed, err, bits, base, count)
    return digits, sample, word_len


def block_frequencies(
    digits: Sequence[int], max_len: int
) -> dict[tuple[int, ...], float]:
    """Sliding-window frequencies of all blocks of length <= max_len, keyed by
    digit tuples; within each length the blocks come in order of first
    occurrence.

    A window of length L is coded as j B + d: j indexes the blocks of length
    L - 1 that occur, d is its last digit less the smallest digit, and B is
    the digit range.  Per length, the codes, their `np.bincount` and their
    first occurrences (`np.minimum.at`) run over blocks of max(_SCRATCH_BLOCK,
    bins) windows, the codes written over the window index in place, and a
    second pass turns each code into the index of its block (or one
    `np.unique` over all windows, when the codes would need more than
    _BINCOUNT_MAX bins).  The digits less the smallest and the window index
    are held in the narrowest unsigned dtype that fits, one byte each for a
    base-3 run with L = 4.  An integer array, such as the digits of
    `sample_digits`, is read as it is, so such a run holds 2 bytes per digit
    beside it; any other sequence is first copied to int64, 8 bytes per digit
    until the narrow copy is made."""
    count = len(digits)
    if max_len < 1 or max_len > count:
        raise ValueError("need 1 <= max_len <= len(digits)")
    values = np.asarray(digits)
    if values.dtype.kind not in "iu":
        values = values.astype(np.int64)
    low = int(values.min())
    radix = int(values.max()) - low + 1
    offsets = np.empty(count, np.min_scalar_type(radix - 1))
    for start in range(0, count, _SCRATCH_BLOCK):
        part = slice(start, start + _SCRATCH_BLOCK)
        np.subtract(values[part], low, out=offsets[part], dtype=np.int64, casting="unsafe")
    del values
    freqs: dict[tuple[int, ...], float] = {}
    blocks: list[tuple[int, ...]] = [()]
    index = np.zeros(count, np.uint8)  # each window's block of the previous length
    for length in range(1, max_len + 1):
        windows = count - length + 1
        bins = len(blocks) * radix
        if bins <= _BINCOUNT_MAX:
            wide = np.promote_types(index.dtype, np.min_scalar_type(bins - 1))
            index = index.astype(wide, copy=False)  # holds every code and block index
            step = max(_SCRATCH_BLOCK, bins)
            counts = np.zeros(bins, np.int64)
            first = np.full(bins, windows)
            for start in range(0, windows, step):
                stop = min(start + step, windows)
                codes = index[start:stop].astype(np.intp)
                codes *= radix
                codes += offsets[start + length - 1 : stop + length - 1]
                counts += np.bincount(codes, minlength=bins)
                np.minimum.at(first, codes, np.arange(start, stop))
                index[start:stop] = codes
            present = np.flatnonzero(counts)
            counts, first = counts[present], first[present]
            dense = np.zeros(bins, index.dtype)
            dense[present] = np.arange(len(present))
            for start in range(0, windows, step):
                index[start : start + step] = dense[index[start : start + step]]
        else:
            codes = index[:windows].astype(np.int64) * radix
            codes += offsets[length - 1 :]
            present, first, index, counts = np.unique(
                codes, return_index=True, return_inverse=True, return_counts=True
            )
        blocks = [blocks[c // radix] + (low + c % radix,) for c in present.tolist()]
        counts = counts.tolist()
        for j in np.argsort(first, kind="stable").tolist():
            freqs[blocks[j]] = counts[j] / windows
    return freqs


def digit_block_freqs(
    x: Scalar, base: int, count: int, max_len: int
) -> dict[tuple[int, ...], float]:
    """Sliding-window frequencies of all digit blocks of length <= max_len
    among the first `count` digits of frac(x) in the given base."""
    return block_frequencies(extract_digits(x, base, count), max_len)


def block_table(freqs: Mapping[tuple[int, ...], float], base: int, max_len: int) -> tuple[list, dict]:
    """Rows (block, observed, base^-len, |observed - base^-len|) for every
    block of length <= max_len (absent blocks observed as 0), and the
    per-length max of the last column."""
    rows = []
    worst: dict[int, float] = {}
    for length in range(1, max_len + 1):
        expected = base ** -length
        worst[length] = 0.0
        for block in all_blocks(base, length):
            observed = freqs.get(block, 0.0)
            deviation = abs(observed - expected)
            rows.append((block, observed, expected, deviation))
            worst[length] = max(worst[length], deviation)
    return rows, worst


def all_blocks(base: int, length: int):
    """Every block of `length` base-`base` digits, the first digit varying
    fastest."""
    return (block[::-1] for block in itertools.product(range(base), repeat=length))


# ---------------------------------------------------------------------------
# subsequences and predicted coefficients


@dataclass(frozen=True)
class SubsequenceReport:
    modulus: int
    full: dict[tuple[int, ...], float]
    classes: tuple[dict[tuple[int, ...], float], ...]
    max_deviation: float


def subsequence_compare(sample: OrbitSample, p: int, k_max: int) -> SubsequenceReport:
    """Weyl sums of the full orbit against each residue-class subsequence
    (indices n = j mod p), reporting the worst absolute difference."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if sample.size < p:
        raise ValueError("sample shorter than the modulus")
    full = weyl_sums(sample, k_max)
    classes = []
    worst = 0.0
    for j in range(p):
        ws = weyl_sums(replace(sample, points=sample.points[j::p]), k_max)
        classes.append(ws)
        worst = max(worst, max(abs(ws[k] - full[k]) for k in full))
    return SubsequenceReport(
        modulus=p, full=full, classes=tuple(classes), max_deviation=worst
    )


def fourier_table(means: dict[tuple[int, ...], complex], coefficients) -> tuple[list, float]:
    """Rows (k, predicted, empirical, |empirical - predicted|) over the
    one-dimensional frequencies (k,) of `means` in increasing k, with
    predicted the value of `coefficients` at k (one `table` call for all k),
    and the max of the last column."""
    items = sorted(means.items())
    predicted = coefficients.table([k for (k,), _ in items])
    rows = [(k, p.value, emp, abs(emp - p.value)) for ((k,), emp), p in zip(items, predicted)]
    return rows, max((row[3] for row in rows), default=0.0)
