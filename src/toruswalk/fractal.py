"""IFS attractors, coding maps, Bernoulli sampling, expanding walk maps, and
exact orbit identities.

The contracting system is f_i(x) = D^{-r_i} x + t_i for an expanding integer
matrix D; the matching walk maps are h_i(x) = D^{r_i}(x + t_i).  All identity
checks run on matched finite prefixes so both sides are exact Scalars; long
orbits for statistics use a fixed-point integer path whose precision budget
is computed from the word length, evaluated by one divide-and-conquer engine
that composes blocks of affine maps exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd
from operator import add, mul
from typing import Sequence

import numpy as np

from .exactcore import (
    AdaptedNorm,
    IntMatrix,
    IrrationalBasis,
    NearIntegerError,
    Scalar,
    TorusPoint,
    _divmod,
    _matmul,
    adapted_norm,
    commute,
    is_expanding,
    mat_apply,
)

__all__ = [
    "AffineIFS",
    "AffineEndo",
    "Word",
    "OrbitSample",
    "WindowUnavailableError",
    "PrecisionExceededError",
    "code_prefix",
    "sample_word",
    "walk_trajectory",
    "h_word_at_zero",
    "orbit_identity_check",
    "kappa_ell_s",
    "repetition_weight",
    "precision_budget",
    "walk_orbit_fixed",
    "code_prefix_fixed",
    "digits_from_fixed",
    "TRUNCATION_SLACK",
]

logger = logging.getLogger(__name__)

_Q0 = Fraction(0)


class WindowUnavailableError(ValueError):
    """Not enough symbols around the index to resolve the repetition count."""


class PrecisionExceededError(ArithmeticError):
    """Accumulated error exhausted the precision budget."""


@dataclass(frozen=True)
class Word:
    """Finite word over the alphabet {1, ..., k}."""

    letters: tuple[int, ...]
    alphabet: int

    def __post_init__(self) -> None:
        if self.letters and not 1 <= min(self.letters) <= max(self.letters) <= self.alphabet:
            raise ValueError("letters out of range")

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]


def _letters(w, alphabet: int) -> tuple[int, ...]:
    """The 1-based letters of a word over {1, ..., alphabet}, checked as the
    orbit engine checks them."""
    return tuple((_letter_indices(w, alphabet) + 1).tolist())


@dataclass(frozen=True)
class AffineEndo:
    """Affine toral endomorphism x -> Lx + offset (mod Z^d)."""

    linear: IntMatrix
    offset: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if self.linear.dimension != len(self.offset):
            raise ValueError("offset dimension does not match matrix")

    @property
    def dimension(self) -> int:
        return self.linear.dimension

    def __call__(self, point: TorusPoint) -> TorusPoint:
        img = self.linear.apply(point.coords)
        return TorusPoint([a + b for a, b in zip(img, self.offset)]).reduced()


@dataclass(frozen=True)
class AffineIFS:
    """Contracting system f_i(x) = D^{-r_i} x + t_i with selection law P.

    Exponents are normalized so gcd(r_1, ..., r_k) = 1, replacing D by the
    appropriate power when needed (a notice is logged).
    """

    d_matrix: IntMatrix
    exponents: tuple[int, ...]
    translations: tuple[TorusPoint, ...]
    probabilities: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        k = len(self.exponents)
        if k == 0 or len(self.translations) != k or len(self.probabilities) != k:
            raise ValueError("exponents, translations, probabilities must align")
        if any(r < 1 for r in self.exponents):
            raise ValueError("exponents must be positive integers")
        d = self.d_matrix.dimension
        for t in self.translations:
            if t.dimension != d:
                raise ValueError("translation dimension mismatch")
        _probabilities(self.probabilities, k)
        g = gcd(*self.exponents)
        if g > 1:
            logger.info("normalizing exponents by gcd %d (D -> D^%d)", g, g)
            object.__setattr__(self, "d_matrix", self.d_matrix ** g)
            object.__setattr__(
                self, "exponents", tuple(r // g for r in self.exponents)
            )
        if not is_expanding(self.d_matrix):
            raise ValueError("D must be expanding")

    @classmethod
    def create(
        cls,
        d_matrix,
        exponents: Sequence[int],
        translations,
        probabilities=None,
        basis: IrrationalBasis | None = None,
    ) -> "AffineIFS":
        """Convenience constructor accepting ints / nested lists / strings."""
        if isinstance(d_matrix, int):
            d_matrix = IntMatrix.from_rows([[d_matrix]])
        elif not isinstance(d_matrix, IntMatrix):
            d_matrix = IntMatrix.from_rows(d_matrix)
        k = len(exponents)
        if probabilities is None:
            probabilities = [Fraction(1, k)] * k
        trans = []
        for t in translations:
            if isinstance(t, TorusPoint):
                trans.append(t)
            elif isinstance(t, Scalar):
                trans.append(TorusPoint([t]))
            else:
                seq = t if isinstance(t, (list, tuple)) else [t]
                coords = []
                for c in seq:
                    if isinstance(c, Scalar):
                        coords.append(c)
                    else:
                        coords.append(
                            Scalar.rational(Fraction(c), basis or IrrationalBasis())
                        )
                trans.append(TorusPoint(coords))
        return cls(
            d_matrix,
            tuple(int(r) for r in exponents),
            tuple(trans),
            tuple(Fraction(p) for p in probabilities),
        )

    @property
    def alphabet(self) -> int:
        return len(self.exponents)

    @property
    def dimension(self) -> int:
        return self.d_matrix.dimension

    @property
    def basis(self) -> IrrationalBasis:
        return self.translations[0].basis

    @cached_property
    def adapted(self) -> AdaptedNorm:
        return adapted_norm([self.d_matrix])

    @cached_property
    def _inverse_powers(self) -> dict[int, tuple[tuple[Fraction, ...], ...]]:
        return {
            r: (self.d_matrix ** r).inverse_rational() for r in set(self.exponents)
        }

    def apply_map(self, letter: int, point: Sequence[Scalar]) -> list[Scalar]:
        """f_letter acting on a lift, exactly."""
        inv = self._inverse_powers[self.exponents[letter - 1]]
        img = mat_apply(inv, list(point))
        t = self.translations[letter - 1].coords
        return [a + b for a, b in zip(img, t)]

    def walk_maps(self) -> list[AffineEndo]:
        """The expanding companions h_i(x) = D^{r_i}(x + t_i)."""
        out = []
        for r, t in zip(self.exponents, self.translations):
            power = self.d_matrix ** r
            out.append(AffineEndo(power, tuple(power.apply(t.coords))))
        return out


# ---------------------------------------------------------------------------
# exact coding and orbit identities


def code_prefix(ifs: AffineIFS, w) -> list[Scalar]:
    """Exact lift of f_{w_1} o ... o f_{w_n}(0)."""
    letters = _letters(w, ifs.alphabet)
    zero = Scalar.rational(0, ifs.basis)
    v: list[Scalar] = [zero] * ifs.dimension
    for a in reversed(letters):
        v = ifs.apply_map(a, v)
    return v


def sample_word(ifs: AffineIFS, rng: np.random.Generator, n: int) -> Word:
    """n i.i.d. letters with law P from a seeded generator."""
    letters = walk_letter_stream(ifs.probabilities, rng, n)
    return Word(tuple(letters.tolist()), ifs.alphabet)


def walk_trajectory(
    endos: Sequence[AffineEndo], x0: TorusPoint, w
) -> list[TorusPoint]:
    """Exact points h_{w_n} o ... o h_{w_1}(x0) mod Z^d for n = 1..len(w)."""
    letters = _letters(w, len(endos))
    for i, a in enumerate(endos):
        for b in endos[i + 1 :]:
            if not commute(a.linear, b.linear):
                raise ValueError("walk maps must have commuting linear parts")
    out = []
    current = x0.reduced()
    for a in letters:
        current = endos[a - 1](current)
        out.append(current)
    return out


def h_word_at_zero(ifs: AffineIFS, w) -> TorusPoint:
    """Exact value of h_{w_n} o ... o h_{w_1}(0) via the power-sum formula
    sum_j D^{r_{w_j} + ... + r_{w_n}} t_{w_j} (independent of composition)."""
    letters = _letters(w, ifs.alphabet)
    zero = Scalar.rational(0, ifs.basis)
    acc: list[Scalar] = [zero] * ifs.dimension
    suffix = 0  # r_{w_{j+1}} + ... + r_{w_n}, built from the right
    powers: dict[int, IntMatrix] = {}
    for a in reversed(letters):
        exp = suffix + ifs.exponents[a - 1]
        if exp not in powers:
            powers[exp] = ifs.d_matrix ** exp
        term = powers[exp].apply(ifs.translations[a - 1].coords)
        acc = [x + y for x, y in zip(acc, term)]
        suffix = exp
    return TorusPoint(acc).reduced()


def orbit_identity_check(ifs: AffineIFS, w, n: int) -> tuple[TorusPoint, TorusPoint]:
    """Both sides of D^{R_n} x = (walk sum) + (coded tail) on matched finite
    prefixes; with x, tail coded from the same word they are exactly equal
    mod Z^d."""
    letters = _letters(w, ifs.alphabet)
    if not 0 <= n <= len(letters):
        raise ValueError("need 0 <= n <= len(word)")
    r_n = sum(ifs.exponents[a - 1] for a in letters[:n])
    x = code_prefix(ifs, letters)
    lhs = TorusPoint((ifs.d_matrix ** r_n).apply(x)).reduced()
    walk_part = h_word_at_zero(ifs, letters[:n])
    tail = TorusPoint(code_prefix(ifs, letters[n:]))
    rhs = (walk_part + tail).reduced()
    return lhs, rhs


# ---------------------------------------------------------------------------
# exponent bookkeeping for the general-exponent reduction


def kappa_ell_s(exponents: Sequence[int], w) -> tuple[int, int]:
    """(ell, s) with rbar(ell-1) < r_{w_1}+...+r_{w_n} <= rbar*ell and
    s = rbar*ell - sum, so Dbar^ell = D_{w_1}...D_{w_n} D^s exactly."""
    letters = _letters(w, len(exponents))
    rbar = max(exponents)
    total = sum(exponents[a - 1] for a in letters)
    ell = -(-total // rbar)  # ceil
    s = rbar * ell - total
    return ell, s


def repetition_weight(exponents: Sequence[int], w, n: int) -> Fraction:
    """Reciprocal multiplicity of ell at 1-based index n along the word.

    Raises WindowUnavailableError when the run of equal ell values may extend
    past the available symbols.
    """
    letters = _letters(w, len(exponents))
    if not 1 <= n <= len(letters):
        raise ValueError("index out of range")
    rbar = max(exponents)
    rmin = min(exponents)
    totals = [0]
    for a in letters:
        totals.append(totals[-1] + exponents[a - 1])
    ell = [-(-t // rbar) for t in totals[1:]]  # ell[m-1] for m = 1..len
    target = ell[n - 1]
    lo = n
    while lo > 1 and ell[lo - 2] == target:
        lo -= 1
    hi = n
    while hi < len(letters) and ell[hi] == target:
        hi += 1
    if hi == len(letters) and rbar * target - totals[hi] >= rmin:
        raise WindowUnavailableError(
            f"run of ell={target} may extend beyond the {len(letters)} known symbols"
        )
    return Fraction(1, hi - lo + 1)


# ---------------------------------------------------------------------------
# fixed-point numeric orbits


def precision_budget(
    matrices: Sequence[IntMatrix], steps: int, guard_bits: int = 96
) -> int:
    """Bits needed so a length-`steps` orbit keeps per-point error < 2^-32.

    Error grows by at most the max absolute row sum per step; the budget is
    ceil(steps * log2(amplification)) + guard_bits.
    """
    amp = max((_norm(m.rows) for m in matrices), default=1)
    if amp <= 1:
        return 64 + guard_bits
    return math.ceil(steps * math.log2(amp)) + guard_bits


#: largest per-point error a statistic accepts in an OrbitSample
ERROR_CEILING = 2.0 ** -32


@dataclass(frozen=True)
class OrbitSample:
    """Certified orbit points, as every orbit producer returns them and
    every statistic reads them.

    `points` has shape (N, d) with all coordinates in [0, 1); those of the
    fixed-point engines are multiples of 2^-53 (points_csv writes them from
    their digits).  `error_bound` is a uniform per-point accuracy bound,
    which must stay below ERROR_CEILING for the statistics to accept the
    sample; `precision_bits` is the orbit's fixed-point precision, None when
    no fixed-point orbit ran.
    """

    points: np.ndarray
    error_bound: float
    precision_bits: int | None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("points must be a nonempty (N, d) array")
        if not (pts.min() >= 0.0 and pts.max() < 1.0):  # a NaN is both, and fails both
            raise ValueError("coordinates must lie in [0, 1)")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def _require_accuracy(self) -> None:
        if not self.error_bound < ERROR_CEILING:
            raise ValueError(
                f"per-point error {self.error_bound:.3e} exceeds 2^-32; "
                "recompute the orbit at higher precision"
            )


def _error_to_float(err_ulps: int, bits: int) -> float:
    if err_ulps <= 0:
        return 0.0
    shift = err_ulps.bit_length()
    return float(2.0 ** (shift - bits))


# The orbit engine.  A block of steps x -> M_a x + beta_a (mod 1) composes
# exactly to x -> M x + sum_k C_k beta_k with integer matrices (M, C_k); the
# offsets beta_k are read only when a block is applied, at the precision the
# block needs.  A run solves the left half of its steps at that half's
# precision, jumps to the midpoint with the left block map (one multiplication
# at the precision of the whole range), drops the low bits the right half
# cannot use and recurses; blocks that amplify by few bits run the plain loop.
# N steps amplifying by up to D each cost O(M(N log D) log N), M(n) being the
# cost of one n-bit multiplication.
#
# Block maps come from one product tree, _tree, and nowhere else: the error
# budget, the coded prefix and the engine read it.  The engine only reads
# maps while it solves: the tree of a left half keeps the left halves of its
# own splits, so each range is composed once.  A one-dimensional family is
# plain ints throughout, in the maps as in the steps.
#
# Every dropped bit is tracked in ulps, so each point is certified to lie
# within TRUNCATION_SLACK of the step-by-step fixed-point recursion on the
# same p-bit inputs, whose own error bookkeeping is replayed exactly.
#
# A digit run (x -> D x, one letter) does not step its leaves one by one:
# _solve only records them (_defer_leaf), and _digit_lanes then advances all
# of them as lanes of one Python integer, one multiplication by D^k per k
# steps, with a certificate per lane; only a lane that the certificate cannot
# clear runs the per-step loop, _digit_leaf.

# Bits kept beyond what the amplification of a block uses, plus log2(N).
_GUARD_BITS = 160
#: certified distance between engine points and the step-by-step recursion
TRUNCATION_SLACK = 2.0 ** -120
# Blocks amplifying by at most this many bits run the plain loop.
_LEAF_BITS = 320
# Block maps of at most this many steps are composed by a plain loop.
_MAP_LEAF_STEPS = 64
# The plain loop stores its points after at most this many steps.
_CHUNK_STEPS = 1024
# Elements per block of the per-sample passes beside an orbit (the letter
# stream, the engine's prefix counts, chains' rational-case points, stats'
# character nodes, discrepancy and block counts): their float, complex and
# int64 temporaries stay below a megabyte or so whatever N is.
_SCRATCH_BLOCK = 1 << 14
_OUT_SCALE = 2.0 ** -53


def _matvec(m, v) -> list[int]:
    if isinstance(m, int):
        return [m * v[0]]
    return [sum(map(mul, row, v)) for row in m]


def _matadd(a, b):
    return tuple(tuple(map(add, r, s)) for r, s in zip(a, b))


def _norm(m) -> int:
    """Max absolute row sum: how much the matrix amplifies a max-norm error."""
    if isinstance(m, int):
        return abs(m)
    return max(sum(abs(x) for x in row) for row in m)


def _leaf_map(mats, active, letters, lo, hi):
    """_tree of steps lo..hi-1 by a plain loop: prod <- prod M_a and C_a +=
    prod, from the last step back."""
    seq = letters[lo:hi].tolist()
    if isinstance(mats[0], int):  # plain ints: the per-step tuple work would dominate
        prod = 1
        sums = [0] * len(mats)
        for a in reversed(seq):
            sums[a] += prod
            prod *= mats[a]
        return prod, [c if on else None for c, on in zip(sums, active)]
    d = len(mats[0])
    if d == 2:  # written out on plain ints
        flat = [(*m[0], *m[1]) for m in mats]
        p00, p01, p10, p11 = 1, 0, 0, 1
        acc = [[0, 0, 0, 0] if on else None for on in active]
        for a in reversed(seq):
            c = acc[a]
            if c is not None:
                c[0] += p00
                c[1] += p01
                c[2] += p10
                c[3] += p11
            m00, m01, m10, m11 = flat[a]
            p00, p01, p10, p11 = (
                p00 * m00 + p01 * m10,
                p00 * m01 + p01 * m11,
                p10 * m00 + p11 * m10,
                p10 * m01 + p11 * m11,
            )
        return ((p00, p01), (p10, p11)), [
            None if c is None else ((c[0], c[1]), (c[2], c[3])) for c in acc
        ]
    prod = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    sums = [tuple((0,) * d for _ in range(d)) if on else None for on in active]
    for a in reversed(seq):
        if sums[a] is not None:
            sums[a] = _matadd(sums[a], prod)
        prod = _matmul(prod, mats[a])
    return prod, sums


def _tree(mats, active, letters, lo, hi, run=None):
    """Exact composition of steps lo..hi-1 of x -> mats[a] x + beta_a.

    Returns (M, C) with x_hi = M x_lo + sum_k C[k] beta_k: M is the product
    of the step matrices and C[k] sums, over the steps with letter k, the
    product of the matrices after that step (None where active[k] is false).
    Matrices are plain ints in one dimension and tuples of rows otherwise.

    With `run`, the left half of every split that the engine splits too
    (the same _amp_bits test, the same midpoint) is kept in run.kept with
    run's inactive letters set to None: the engine then reads those maps
    instead of composing them again.
    """
    if len(mats) == 1 and not active[0] and isinstance(mats[0], int):  # x -> D x: one power
        return mats[0] ** (hi - lo), [None]
    if hi - lo <= _MAP_LEAF_STEPS:
        return _leaf_map(mats, active, letters, lo, hi)
    if run is not None and _amp_bits(run, lo, hi) <= _LEAF_BITS:
        run = None  # the engine splits nothing inside a range it does not split
    mid = (lo + hi) // 2
    m2, c2 = _tree(mats, active, letters, mid, hi, run)
    m1, c1 = _tree(mats, active, letters, lo, mid, run)
    if run is not None:
        run.kept[lo, mid] = m1, [c if on else None for c, on in zip(c1, run.active)]
    if isinstance(m2, int):
        return m2 * m1, [None if x is None else m2 * x + y for x, y in zip(c1, c2)]
    return _matmul(m2, m1), [
        None if x is None else _matadd(_matmul(m2, x), y) for x, y in zip(c1, c2)
    ]


class _Orbit:
    """Inputs, precision schedule and outputs of one engine run.

    Letter k acts as x -> mats[k] x + offsets[k] / 2^p (mod 1), mats[k] a
    plain int in one dimension; `leaf` is the plain loop that fills `points`,
    or for a digit run _defer_leaf, which records the leaf in `leaves` for
    _digit_lanes to fill `points` and `digits`.  The run refers to nothing
    that refers back to it, so it is freed as soon as the caller drops it.
    """

    def __init__(self, mats, offsets, letters, p, leaf):
        self.mats = mats
        self.offsets = offsets
        self.active = [any(off) for off in offsets]
        # an offset read at q bits is exact when its low p - q bits are zero
        self.zeros = [
            min((b & -b).bit_length() - 1 if b else p for b in off) for off in offsets
        ]
        self.amps = [max(_norm(m), 1) for m in mats]
        # per amplifying letter: log2 of its amplification and its
        # _prefix_counts, so that _amp_bits counts a range at once
        self.prefix_counts = [
            (math.log2(amp), *_prefix_counts(letters, k))
            for k, amp in enumerate(self.amps)
            if amp > 1
        ]
        self.letters = letters
        self.p = p
        self.guard = _GUARD_BITS + len(letters).bit_length()
        self.leaf = leaf
        self.points = np.empty((len(letters), len(offsets[0])))
        self.spread = 0.0  # largest truncation error of a point
        # digit runs: the digit of every step, the leaves that _solve
        # recorded, and the exact p-bit input and its error
        self.digits = None
        self.leaves: list[tuple] = []
        self.fixed = 0
        self.fixed_err = 0
        # left-half block maps that _tree kept for the engine, (lo, hi) ->
        # (M, [C_k]); see _map_of
        self.kept: dict = {}


def _prefix_counts(letters: np.ndarray, k: int) -> tuple[memoryview, memoryview]:
    """(checkpoints, masks) of letter k in a word: checkpoints[j] counts it
    among the first j _MAP_LEAF_STEPS letters, and bit i of masks[j] is set
    when letter j _MAP_LEAF_STEPS + i is k, so that its count among the
    first n letters is checkpoints[n // 64] plus the bits of masks[n // 64]
    below n % 64.  4 + 8 bytes per 64 letters, built _SCRATCH_BLOCK letters
    at a time; memoryviews of them index to Python ints."""
    rows = len(letters) // _MAP_LEAF_STEPS + 1  # the last one partial or empty
    bits = np.zeros(rows * _MAP_LEAF_STEPS // 8, np.uint8)
    checkpoints = np.zeros(rows + 1, np.uintc)  # the last entry is past the word
    for start in range(0, len(letters), _SCRATCH_BLOCK):
        hits = letters[start : start + _SCRATCH_BLOCK] == k
        bits[start // 8 : start // 8 + -(-hits.size // 8)] = np.packbits(hits, bitorder="little")
        row = start // _MAP_LEAF_STEPS + 1
        per_row = np.add.reduceat(hits, range(0, hits.size, _MAP_LEAF_STEPS), dtype=np.uintc)
        checkpoints[row : row + per_row.size] = per_row
    np.cumsum(checkpoints, out=checkpoints)
    masks = bits.view("<u8").astype(np.uint64)
    return memoryview(checkpoints[:rows]), memoryview(masks)


def _amp_bits(run: _Orbit, lo: int, hi: int) -> float:
    """log2 of an upper bound on the amplification of steps lo+1..hi."""
    qlo, qhi = lo // _MAP_LEAF_STEPS, hi // _MAP_LEAF_STEPS
    below_lo = (1 << lo % _MAP_LEAF_STEPS) - 1
    below_hi = (1 << hi % _MAP_LEAF_STEPS) - 1
    bits = 0
    for log_amp, checkpoints, masks in run.prefix_counts:
        bits += log_amp * (
            checkpoints[qhi] + (masks[qhi] & below_hi).bit_count()
            - checkpoints[qlo] - (masks[qlo] & below_lo).bit_count()
        )
    return bits


def _truncate(state, q, t, e, bits):
    """Drop a q-bit state to `bits` bits (if fewer): the dropped low bits join
    the truncation error t, and the tracked input error e is rounded up."""
    if bits >= q:
        return state, q, t, e
    s = q - bits
    low = (1 << s) - 1
    r = max(x & low for x in state)
    return [x >> s for x in state], bits, -(-(t + r) >> s), -(-e >> s)


def _jump(run: _Orbit, block, state, q, t, e):
    """Apply a block map to a q-bit state, reading the offsets at q bits."""
    m, c = block
    shift = run.p - q
    acc = _matvec(m, state)
    amp = _norm(m)
    t *= amp
    for k, ck in enumerate(c):
        if ck is None:
            continue
        acc = list(map(add, acc, _matvec(ck, [b >> shift for b in run.offsets[k]])))
        if shift > run.zeros[k]:
            t += _norm(ck)
    mask = (1 << q) - 1
    return [a & mask for a in acc], t, amp * e


def _map_of(run: _Orbit, lo, hi):
    """Block map of steps lo+1..hi: the kept one if the run has it (handed
    out once, then dropped), else a fresh _tree, which keeps the maps that
    the range's own splits will ask for."""
    block = run.kept.pop((lo, hi), None)
    if block is None:
        block = _tree(run.mats, run.active, run.letters, lo, hi, run)
    return block


def _solve(run: _Orbit, lo, hi, amp_bits, state, q, t, e) -> None:
    """Points of steps lo+1..hi, which amplify by up to 2^amp_bits, from the
    q-bit state at step lo.  That state lies within t ulps of the step-by-step
    recursion's state; e is the recursion's own error in the same ulps
    (tracked for digit runs, 0 for walks)."""
    if hi - lo <= 1 or amp_bits <= _LEAF_BITS:
        run.leaf(run, lo, hi, state, q, t, e)
        return
    mid = (lo + hi) // 2
    left = _map_of(run, lo, mid)
    bits = _amp_bits(run, lo, mid)
    _solve(run, lo, mid, bits, *_truncate(state, q, t, e, math.ceil(bits) + run.guard))
    state, t, e = _jump(run, left, state, q, t, e)
    bits = _amp_bits(run, mid, hi)
    _solve(run, mid, hi, bits, *_truncate(state, q, t, e, math.ceil(bits) + run.guard))


def _run(run: _Orbit, state, e=0) -> _Orbit:
    """Solve all steps from the exact p-bit state (e ulps from the truth)."""
    n = len(run.letters)
    bits = _amp_bits(run, 0, n)
    _solve(run, 0, n, bits, *_truncate(state, run.p, 0, e, math.ceil(bits) + run.guard))
    if run.leaves:
        _digit_lanes(run)
    if run.spread > TRUNCATION_SLACK:
        raise PrecisionExceededError(
            f"truncation error {run.spread:.3e} exceeds the engine's slack"
        )
    return run


def _emit(run: _Orbit, lo, hi, out, t, q) -> None:
    """Store the top 53 bits of the states of steps lo+1..hi, as multiples
    of 2^-53 (exact in float64); t ulps at q bound their truncation error."""
    shape = (hi - lo, run.points.shape[1])
    run.points[lo:hi] = np.fromiter(out, dtype=np.int64, count=len(out)).reshape(shape) * _OUT_SCALE
    run.spread = max(run.spread, _error_to_float(t, q))


def _walk_leaf(run: _Orbit, lo, hi, state, q, t, e) -> None:
    """Plain loop x <- M_a x + beta_a mod 2^q with offsets read at q bits.

    The truncation error follows t <- amp_a t + [beta_a read inexactly] per
    step; every amp_a being at least 1, a chunk's steps leave it below
    (t + its inexact steps) * the product of its amps, which is what the
    chunk's points are stored with.
    """
    shift = run.p - q
    offs = [[b >> shift for b in off] for off in run.offsets]
    inexact = [shift > z for z in run.zeros]
    amps = run.amps
    mats = run.mats
    mask = (1 << q) - 1
    take = q - 53
    d = len(state)
    # d <= 2 is written out on plain ints: the per-step list work would dominate
    if d == 1:
        bs = [off[0] for off in offs]
    elif d == 2:
        flat = [(*m[0], *m[1], *off) for m, off in zip(mats, offs)]
    for start in range(lo, hi, _CHUNK_STEPS):
        stop = min(hi, start + _CHUNK_STEPS)
        letters = run.letters[start:stop]
        seq = letters.tolist()
        out = []
        if d == 1:
            s = state[0]
            for a in seq:
                s = (mats[a] * s + bs[a]) & mask
                out.append(s >> take)
            state = [s]
        elif d == 2:
            x, y = state
            for a in seq:
                m00, m01, m10, m11, b0, b1 = flat[a]
                x, y = (m00 * x + m01 * y + b0) & mask, (m10 * x + m11 * y + b1) & mask
                out.append(x >> take)
                out.append(y >> take)
            state = [x, y]
        else:
            for a in seq:
                state = [(x + b) & mask for x, b in zip(_matvec(mats[a], state), offs[a])]
                out.extend([x >> take for x in state])
        counts = np.bincount(letters, minlength=len(amps)).tolist()
        t += sum(c for c, off in zip(counts, inexact) if off)
        t *= math.prod(amp**c for amp, c in zip(amps, counts) if amp > 1)
        _emit(run, start, stop, out, t, q)


def _digit_leaf(run: _Orbit, lo, hi, state, q, t, e) -> None:
    """Plain loop x <- D x mod 2^q with the near-integer certificate: the
    path of a lane that _digit_lanes cannot clear.

    A step is accepted when the state stays more than t + e ulps from an
    integer: the step-by-step recursion then passes its own test with the
    same digit.  Otherwise the loop restarts at that step from the exact
    p-bit state, where the test is the recursion's own and a failure raises.
    Digits and points go to their steps' places in run.digits and
    run.points, so a rerun overwrites what the lanes wrote.
    """
    base = run.mats[0]
    mask = (1 << q) - 1
    take = q - 53
    s = state[0]
    thr = t + e
    for start in range(lo, hi, _CHUNK_STEPS):
        stop = min(hi, start + _CHUNK_STEPS)
        out = []
        digits = []
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
                run.digits[start:n] = digits
                _emit(run, start, n, out, t * base ** (n - lo), q)
                power = base ** n
                exact = (run.fixed * power) & ((1 << run.p) - 1)
                return _digit_leaf(run, n, hi, [exact], run.p, 0, run.fixed_err * power)
            digits.append(digit)
            out.append(s >> take)
        run.digits[start:stop] = digits
        _emit(run, start, stop, out, t * base ** (stop - lo), q)


def _defer_leaf(run: _Orbit, lo, hi, state, q, t, e) -> None:
    """The leaf of a digit run: recorded, in order, for _digit_lanes."""
    if hi > lo:
        run.leaves.append((lo, hi, state[0], q, t, e))


def _head_steps(base: int) -> int:
    """The largest k with base^k <= 2^63 (0 when base > 2^63): the steps a
    lane's 8-byte head holds."""
    k, power = 0, base
    while power <= 1 << 63:
        k, power = k + 1, power * base
    return k


def _digit_lanes(run: _Orbit) -> None:
    """The digits and points of every recorded leaf of a digit run, all
    leaves at once.

    Layout: with Q = 8 ceil(q_max / 8) (at least 64), leaf i is a lane of
    Q + 64 bits in one integer S: its q_i-bit state shifted up by Q - q_i,
    under an 8-byte head.  S *= D^k advances every lane by k steps and keeps
    the low Q - q_i zero bits, so the lane's low Q bits are its state mod
    2^q_i shifted alike; with D^k <= 2^63 (_head_steps) the head stays below
    2^63 and never carries into the next lane, and S &= MASK clears the
    heads before the next k steps.  Each k steps cost one multiplication and
    one to_bytes, from which numpy reads every lane's head H and its
    fraction's top 64 bits, _SCRATCH_BLOCK lanes at a time.

    Read-back: the fraction after step j of the k, F_j (F_0 cleared of its
    head), satisfies D F_(j-1) = d_j 2^Q + F_j with digit d_j, so the head
    is H = sum_j d_j D^(k-j), and the digits are H's base-D digits.  The
    point X_j = F_j >> (Q - 53), the state's top 53 bits as the loop stores
    them, follows from X_k backwards: X_(j-1) = floor((d_j 2^53 + X_j) / D),
    because floor(floor(y) / D) = floor(y / D); it is computed in uint64 as
    d_j A + floor((d_j B + X_j) / D) with 2^53 = A D + B, which stays below
    D^2 + 2^53 <= 2^64 whenever k >= 2.

    Certificate: the loop accepts step m of a leaf when its state s_m lies
    more than thr_m = (t + e) D^m ulps from an integer, and thr_m is at most
    T_i = (t + e) D^n for its n steps.  With T = (T_i >> (q - 53)) + 1, a
    point T <= X < 2^53 - T gives s_m >= X 2^(q-53) > T_i and
    s_m < (X + 1) 2^(q-53) <= 2^q - T 2^(q-53) < 2^q - T_i, so the loop
    accepts the step with the same digit and point.  A lane whose every
    point passes this test is done, and adds its truncation error
    t D^n ulps at q bits to run.spread, as the loop would.  Every other lane
    (and any lane of fewer than 53 bits) reruns _digit_leaf from its entry
    state, leftmost first, so restarts, errors and their messages are the
    loop's.  A base above 2^63, whose digit would not fit a head, runs
    every leaf in _digit_leaf.
    """
    base = run.mats[0]
    leaves = run.leaves
    period = _head_steps(base)
    if not period:
        for lo, hi, s, q, t, e in leaves:
            _digit_leaf(run, lo, hi, [s], q, t, e)
        return
    width = max(64, -(-max(leaf[3] for leaf in leaves) // 8) * 8)
    size = width // 8 + 8
    lanes = len(leaves)
    starts = np.array([leaf[0] for leaf in leaves])
    lengths = np.array([leaf[1] - leaf[0] for leaf in leaves])
    bounds = [
        min(((t + e) * base ** (hi - lo) >> (q - 53)) + 1, 1 << 53) if q >= 53 else 1 << 53
        for lo, hi, _, q, t, e in leaves
    ]
    low = np.array(bounds, dtype=np.uint64)
    high = np.uint64(1 << 53) - low
    packed = b"".join((s << (width - q)).to_bytes(size, "little") for _, _, s, q, _, _ in leaves)
    lane_sum = int.from_bytes(packed, "little")
    mask = int.from_bytes((b"\xff" * (width // 8) + bytes(8)) * lanes, "little")
    d = np.uint64(base)
    a, b = (np.uint64(x) for x in divmod(1 << 53, base))
    flagged = np.zeros(lanes, dtype=bool)
    steps = int(lengths.max())
    for first in range(0, steps, period):
        k = min(period, steps - first)
        lane_sum = (lane_sum & mask) * base**k
        buf = lane_sum.to_bytes(lanes * size, "little")
        heads = np.ndarray((lanes,), "<u8", buf, width // 8, (size,))
        tops = np.ndarray((lanes,), "<u8", buf, width // 8 - 8, (size,))
        step = np.arange(first, first + k)[:, None]
        # the read-back of _SCRATCH_BLOCK lanes at a time: its (k, lanes)
        # arrays stay a few megabytes whatever the number of lanes
        for part in (slice(i, i + _SCRATCH_BLOCK) for i in range(0, lanes, _SCRATCH_BLOCK)):
            head, x = heads[part], tops[part] >> np.uint64(11)
            points = np.empty((k, len(head)), dtype=np.uint64)
            digits = np.empty((k, len(head)), dtype=np.uint64)
            for j in range(k - 1, -1, -1):
                points[j] = x
                head, digits[j] = np.divmod(head, d)
                if j:
                    x = digits[j] * a + (digits[j] * b + x) // d
            index = starts[part] + step
            bad = (points < low[part]) | (points >= high[part])
            if first + k > lengths[part].min():  # some lanes end within these steps
                live = step < lengths[part]
                bad &= live
                index, points, digits = index[live], points[live], digits[live]
            flagged[part] |= bad.any(axis=0)
            run.points[index, 0] = points * _OUT_SCALE
            run.digits[index] = digits
    for (lo, hi, s, q, t, e), rerun in zip(leaves, flagged.tolist()):
        if rerun:
            _digit_leaf(run, lo, hi, [s], q, t, e)
        else:
            run.spread = max(run.spread, _error_to_float(t * base ** (hi - lo), q))


def _orbit_error_bound(err_ulps: int, bits: int, dim: int = 1) -> float:
    """Uniform per-point bound of an engine orbit whose step-by-step
    recursion carries err_ulps of error at `bits` bits: that error rounded up
    to a power of two, one float ulp 2^-53 per coordinate, and the engine's
    certified TRUNCATION_SLACK."""
    return _error_to_float(err_ulps, bits) + dim * _OUT_SCALE + TRUNCATION_SLACK


# The text of engine points.  Each coordinate is m 2^-53 with 0 <= m < 2^53,
# so its %.17g is exact integer arithmetic: x >= 10^-4 prints as "0.", z <= 3
# zeros and the 17 significant digits D = round-half-even(m 10^z 5^17 / 2^36),
# less D's trailing zeros.  A row is laid out at a fixed width in one uint8
# table: the field of such an x is ",0." and the 20-digit text of D, whose
# three leading zeros stand for the z zeros; NUL marks every character that
# %.17g leaves out, and one pass deletes them.  Zero, values off the grid and
# values below 10^-4 (exponent notation) are formatted one by one.


@cache
def _text_tables():
    """(quads, trimmed, lead), built on the first call: quads[i] holds the 4
    ASCII digits of i < 10^4, zero-padded, as one uint32; trimmed[i] the same
    with NUL for their trailing zeros (all NUL for 0); lead[10 z + i] "000i"
    with NUL for all but the last z zeros."""
    i = np.arange(10_000, dtype=np.uint16)[:, None]
    col = np.arange(4, dtype=np.uint16)
    power = 1000 // 10**col
    digits = (i // power % 10).astype(np.uint8) + np.uint8(ord("0"))
    trimmed = digits * (i % (10 * power) != 0)  # NUL where it and all after it are 0
    lead = digits[:10] * (col >= 3 - np.arange(4)[:, None, None])
    return tuple(a.astype(np.uint8).view(np.uint32).reshape(-1) for a in (digits, trimmed, lead))


# m >= _DECADES[k - 1] iff m 2^-53 >= 10^-k
_DECADES = [float(-(-(2**53) // 10**k)) for k in range(1, 5)]
_POW10 = np.array([1, 10, 100, 1000], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_FIVE17_LOW, _FIVE17_HIGH = np.uint64(5**17 & 0xFFFFFFFF), np.uint64(5**17 >> 32)
_FIELD_HEAD = np.frombuffer(b",0.", dtype=np.uint8)
_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)


def _grid_text(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(text, fast) of a flat float64 array: `fast` marks the values on the
    2^-53 grid that are at least 10^-4, and text[i] (5 uint32) holds the
    %.17g of such a value after its "0.", NUL-padded to 20 characters."""
    m = values * 2.0**53
    fast = (m >= _DECADES[3]) & (m < 2.0**53) & (m == np.floor(m))
    m[~fast] = 0
    z = (m < _DECADES[0]).astype(np.intp) + (m < _DECADES[1]) + (m < _DECADES[2])
    m = m.astype(np.uint64) * _POW10.take(z)  # m 10^z < 2^53
    # m 5^17 < 2^93 from 32-bit halves: m 5^17 >> 32 fits a uint64
    low, high = m & _LOW32, m >> np.uint64(32)
    part = low * _FIVE17_LOW
    top = (high * _FIVE17_HIGH << np.uint64(32)) + high * _FIVE17_LOW + low * _FIVE17_HIGH
    top += part >> np.uint64(32)
    d = top >> np.uint64(4)
    rest = (top & np.uint64(15)) << np.uint64(32) | part & _LOW32  # m 5^17 mod 2^36
    # D never rounds up to 10^17: a grid value below 10^-k would have to lie
    # within 10^(-17-k) / 2, under 0.005 grid steps, of it, but 2^53 / 10^k
    # (k = 1, 2, 3) is 0.2 or more above an integer
    d += (rest > 2**35) | ((rest == 2**35) & (d & np.uint64(1) == 1))
    # D < 10^17 as its first digit and four groups of four
    quads, trimmed, leads = _text_tables()
    upper = d // 10**8
    lower = (d - upper * 10**8).astype(np.intp)
    upper = upper.astype(np.intp)
    top = upper // 10_000
    lead = top // 10_000
    groups = [top - lead * 10_000, upper - top * 10_000, lower // 10_000]
    groups.append(lower - groups[2] * 10_000)
    text = np.empty((len(values), 5), dtype=np.uint32)
    text[:, 0] = leads.take(10 * z + lead)
    for k, group in enumerate(groups[:3], 1):
        text[:, k] = quads.take(group)
    text[:, 4] = trimmed.take(groups[3])
    # trailing zeros past the last group (never into the first digit: D >= 10^16)
    tail = np.flatnonzero(groups[3] == 0)
    for k in (3, 2, 1):
        group = groups[k - 1][tail]
        text[tail, k] = trimmed.take(group)
        tail = tail[group == 0]
    return text, fast


def _index_text(first: int, count: int, width: int) -> np.ndarray:
    """(count, width) ASCII digits of first, ..., first + count - 1, NUL in
    place of leading zeros."""
    index = np.arange(first, first + count)
    groups = -(-width // 4)
    parts = np.empty((count, groups), dtype=np.intp)
    rest = index
    for g in range(groups - 1, -1, -1):
        top = rest // 10_000
        parts[:, g] = rest - top * 10_000
        rest = top
    text = _text_tables()[0].take(parts).view(np.uint8)[:, 4 * groups - width :]
    for k in range(1, width):  # the indices below 10^k lead with width - k zeros
        text[: max(0, 10**k - first), : width - k] = 0
    return text


def points_csv(points: np.ndarray, first: int) -> bytes:
    """CSV rows of an (n, d) array of engine points: the index (first,
    first + 1, ...), then each coordinate as %.17g, CRLF line ends.  Any
    float64 coordinates are formatted exactly; those off the 2^-53 grid, zero
    and those below 10^-4 one by one."""
    count, dim = points.shape
    values = np.asarray(points, dtype=float).ravel()
    body, fast = _grid_text(values)
    slow = np.flatnonzero(~fast)
    cells = [format(v, ".17g") for v in values[slow].tolist()]
    field = max([23] + [len(cell) + 1 for cell in cells])  # ",0." and 20 characters
    width = len(str(first + count - 1))
    row = np.zeros(width + dim * field + 2, dtype=np.uint8)
    row[width:-2].reshape(dim, field)[:, :3] = _FIELD_HEAD
    row[-2:] = _CRLF
    table = np.tile(row, (count, 1))
    table[:, :width] = _index_text(first, count, width)
    fields = table[:, width:-2].reshape(count, dim, field)
    fields[..., 3:23] = body.view(np.uint8).reshape(count, dim, 20)
    text = "".join(cell.ljust(field - 1, "\0") for cell in cells).encode()
    fields[slow // dim, slow % dim, 1:] = np.frombuffer(text, dtype=np.uint8).reshape(-1, field - 1)
    return table.tobytes().translate(None, b"\0")


def _letter_indices(w, alphabet: int) -> np.ndarray:
    """0-based letter indices of a word over {1, ..., alphabet}."""
    letters = np.asarray(w.letters if isinstance(w, Word) else w).reshape(-1)
    # a float or object array may hold non-integral letters, which astype would
    # truncate; a boolean array would read True as letter 1
    integral = letters.dtype.kind in "iu" or not np.any(letters % 1)
    if letters.dtype.kind == "b" or letters.size and (
        not integral or letters.min() < 1 or letters.max() > alphabet
    ):
        raise ValueError("letters must index the map family (1-based)")
    indices = letters.astype(np.min_scalar_type(-alphabet - 1))  # holds alphabet: + 1 cannot wrap
    indices -= 1
    return indices


def _error_budget(amps, letters, run=None):
    """(G, [S_k]) of the recursion's error bookkeeping over the word: G is
    the product of the amplifications and S_k sums, over the steps with
    letter k, the product of the amplifications after that step, so the
    final error is G err_0 + sum_k S_k err_k.  When every amplification is 1
    (every rotation) these are 1 and the letter counts; otherwise they are
    the _tree of the amplifications, which keeps block maps for `run`."""
    if max(amps) == 1:
        counts = np.zeros(len(amps), np.int64)
        for start in range(0, len(letters), _SCRATCH_BLOCK):  # bincount reads an intp copy
            counts += np.bincount(letters[start : start + _SCRATCH_BLOCK], minlength=len(amps))
        return 1, counts.tolist()
    return _tree(amps, [True] * len(amps), letters, 0, len(letters), run)


def _exhausted_step(amps, letters, err, offset_errs, limit) -> int:
    """The first step (1-based) at which the recursion's error, entering
    with err and moving by err <- amps[a] err + offset_errs[a], reaches
    `limit`; len(letters) if it never does.  Every offset error is at least
    1, so the error grows at every step and the range halves: the left
    half's _error_budget carries the entry error across it, the descent goes
    left if that reaches the limit and right with that error otherwise, and
    the last _MAP_LEAF_STEPS steps at most are replayed one by one."""
    lo, hi = 0, len(letters)
    while hi - lo > _MAP_LEAF_STEPS:
        mid = (lo + hi) // 2
        growth, sums = _error_budget(amps, letters[lo:mid])
        after = growth * err + sum(c * oe for c, oe in zip(sums, offset_errs))
        if after >= limit:
            hi = mid
        else:
            lo, err = mid, after
    for a in letters[lo:hi].tolist():
        err = err * amps[a] + offset_errs[a]
        lo += 1
        if err >= limit:
            break
    return lo


def walk_orbit_fixed(
    endos: Sequence[AffineEndo],
    x0: TorusPoint,
    w,
    precision_bits: int | None = None,
) -> OrbitSample:
    """Numeric trajectory of h_{w_n} o ... o h_{w_1}(x0) at certified precision.

    x0 and the offsets are read as fixed-point integers at p bits, p from
    precision_budget when precision_bits is None, else precision_bits, which
    must be at least 64 (0 included: it is refused).  The points are those of
    the step-by-step recursion x <- L_a x + beta_a mod 2^p to within
    TRUNCATION_SLACK, computed by the block engine above in O(M(N) log N)
    instead of O(N^2): a block of steps composes exactly to
    x -> L x + sum_k C_k beta_k, the state entering a block carries the bits
    that block amplifies plus 160 + log2(N) guard bits (never more than p),
    and blocks amplifying by at most 320 bits, such as a whole rotation, run
    the plain loop.  The recursion's error bookkeeping
    err <- amp_a * err + (offset error), amp_a the max row sum of L_a (at
    least 1), is composed exactly before any orbit work: if it reaches
    2^(p-33) ulps, i.e. 2^-33, within the word, PrecisionExceededError names
    the first such step.  In one dimension with multipliers >= 1 that
    composition is the _tree of the engine's block maps, so it keeps the maps
    the engine will ask for and the engine composes none of its own.
    error_bound is the final err in ulps rounded up to a power of two, plus
    2^-53 per coordinate for the float output, plus TRUNCATION_SLACK.  The
    orbit comes as an OrbitSample, which is never empty: an empty word raises
    ValueError.
    """
    letters = _letter_indices(w, len(endos))
    n_steps = len(letters)
    d = endos[0].dimension
    mats = [e.linear.rows for e in endos]
    if d == 1:
        mats = [m[0][0] for m in mats]
    p = precision_bits
    if p is None:
        p = precision_budget([e.linear for e in endos], n_steps)
    if p < 64:
        raise ValueError("precision must be at least 64 bits")
    mask = (1 << p) - 1

    state: list[int] = []
    err = 1
    for s in x0.coords:
        x, e = s.fixed_point(p)
        state.append(x & mask)
        err = max(err, e)
    offsets: list[tuple[int, ...]] = []
    offset_errs: list[int] = []
    for endo in endos:
        fixed = [s.fixed_point(p) for s in endo.offset]
        offsets.append(tuple(x & mask for x, _ in fixed))
        offset_errs.append(max([1] + [e for _, e in fixed]))

    run = _Orbit(mats, offsets, letters, p, _walk_leaf)
    # d = 1 with multipliers >= 1: the amplifications are the multipliers, so
    # the budget tree is the tree of the engine's block maps
    growth, sums = _error_budget(run.amps, letters, run if run.amps == mats else None)
    final_err = growth * err + sum(c * oe for c, oe in zip(sums, offset_errs))
    limit = 1 << (p - 33)
    if n_steps and final_err >= limit:
        step = _exhausted_step(run.amps, letters, err, offset_errs, limit)
        raise PrecisionExceededError(f"error budget exhausted at step {step} of {n_steps}")

    _run(run, state)
    return OrbitSample(run.points, _orbit_error_bound(final_err, p, d), p)


def code_prefix_fixed(ifs: AffineIFS, w, bits: int) -> tuple[int, int]:
    """Fixed-point value of a one-dimensional coded point, with its error.

    Returns (X, E): every point of K whose coding begins with w lies within
    E ulps of X / 2^bits, E being the prefix's error plus the tail's.  With
    S = r_{w_1} + ... + r_{w_n} the prefix f_{w_1} o...o f_{w_n}(0) is
    exactly sum_k t_k U_k / D^S, where U_k sums D^(S - r_{w_1} - ... -
    r_{w_{j-1}}) over the positions j with w_j = k.  The integers D^S and U_k
    are the engine's block map of the word (_tree): a product tree, exact at
    every level, costing O(M(N) log N).  X is one floor division of
    sum_k T_k U_k by D^S with T_k the translations at `bits` bits, within
    E_T ulps each, and the prefix's error is ceil(E_T sum_k |U_k| / |D^S|)
    plus one ulp when the division is inexact.  The tail: the coded point of
    w w' is the prefix plus D^-S pi(w'), and |pi(w')| <= max_i |t_i| g / (g - 1)
    with g = |D|^r_min (a geometric series of ratio 1/g), so it adds
    ceil(max_i (|T_i| + E_T) g / ((g - 1) |D^S|)) ulps; for the empty word E
    covers the whole of K.  The divisions are exactcore._divmod: above
    DIVMOD_NEWTON_BITS it takes the quotient in two halves, each from a
    Newton reciprocal of D^S (at half the quotient's bits) applied to the top
    bits of what is left to divide, which puts the half within 2 of its
    floor (the error argument of exactcore._newton_quotient); one product
    r = rest - q D^S per half, with steps of q until r lies in [0, D^S)
    (signs reduced to a positive divisor), makes it exact or refuses it by
    ExactCheckError.  Nothing else is refused here: the digits drawn from X
    (digits_from_fixed) carry E.
    """
    if ifs.dimension != 1:
        raise ValueError("fixed-point coding path is one-dimensional")
    letters = _letter_indices(w, ifs.alphabet)
    d_scalar = ifs.d_matrix.rows[0][0]
    mults = [d_scalar ** r for r in ifs.exponents]
    t_fixed = []
    t_err = 1
    for t in ifs.translations:
        x, e = t.coords[0].fixed_point(bits)
        t_fixed.append(x)
        t_err = max(t_err, e)
    denom, sums = _tree(mults, [True] * len(mults), letters, 0, len(letters))
    numers = [c * m for c, m in zip(sums, mults)]
    v, rem = _divmod(sum(x * u for x, u in zip(t_fixed, numers)), denom)
    err = -(-t_err * sum(abs(u) for u in numers) // abs(denom)) + (1 if rem else 0)
    g = abs(d_scalar) ** min(ifs.exponents)
    reach = max(abs(x) for x in t_fixed) + t_err
    tail, _ = _divmod(-reach * g, (g - 1) * abs(denom))  # -ceil(...)
    return v, err - tail


def digits_from_fixed(
    fixed: int, err_ulps: int, bits: int, base: int, count: int
) -> tuple[np.ndarray, OrbitSample]:
    """Certified digits of a fixed-point value, plus the orbit sample.

    Returns (digits, sample) where digits[m-1] = floor(D * frac(D^(m-1) x))
    and the sample's points[m-1] = frac(D^m x) as floats, for m = 1..count,
    x being fixed / 2^bits with err_ulps of error; the digits are the array
    the engine fills, of np.min_scalar_type(D - 1), one byte per digit up to
    base 256.  The orbit x -> D x mod 1 runs in the block engine in
    O(M(N) log N) instead of O(N^2): a block of n steps is x -> D^n x, the
    state entering it carries ceil(n log2 D) + 160 + log2(N) bits (never
    more than `bits`), and the blocks of at most 320 bits
    (the leaves) all advance together as lanes of one integer
    (_digit_lanes), one multiplication by D^k per k <= 63 / log2(D) steps.
    Refusal is per digit, not at 2^-33: a step is accepted when its state
    stays more than the tracked error from an integer.  A leaf whose every
    point clears that error by the lanes' certificate is accepted as a
    whole; any other leaf runs the per-step loop, where a step that fails
    the test is redone from the exact state at `bits` bits, where the test
    is the step-by-step recursion's own (err_ulps * D^m ulps), and its
    failure raises NearIntegerError for that digit.  Digits are those of the
    recursion.  The sample's error_bound is that of an engine orbit whose
    recursion ends with max(1, err_ulps) * D^count ulps at `bits` bits, and
    its precision is `bits`; count = 0 raises ValueError, as an empty sample
    does, and so does `bits` below 64, as in walk_orbit_fixed.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if bits < 64:
        raise ValueError(f"precision must be at least 64 bits, got {bits}")
    run = _Orbit([base], [(0,)], np.zeros(count, dtype=np.int8), bits, _defer_leaf)
    run.digits = np.empty(count, dtype=np.min_scalar_type(base - 1))
    run.fixed = fixed & ((1 << bits) - 1)
    run.fixed_err = max(1, err_ulps)
    _run(run, [run.fixed], run.fixed_err)
    bound = _orbit_error_bound(run.fixed_err * base ** count, bits)
    return run.digits, OrbitSample(run.points, bound, bits)


def walk_letter_stream(
    probabilities: Sequence[Fraction], rng: np.random.Generator, n: int
) -> np.ndarray:
    """n i.i.d. 1-based letters with the given law (shared sampling helper);
    the law must pass _probabilities.

    The letters are those of one rng.choice(np.arange(1, k + 1), size=n, p=p)
    call: choice with p reads one random() double per letter, so drawing
    _SCRATCH_BLOCK letters at a time reads the same doubles.  They come in
    np.min_scalar_type(k), one byte per letter for k <= 255; the draw of a
    block (its doubles and their int64 positions) is the only other scratch.
    """
    k = len(probabilities)
    p = np.array([float(q) for q in _probabilities(probabilities, k)])
    p /= p.sum()
    alphabet = np.arange(1, k + 1, dtype=np.min_scalar_type(k))
    letters = np.empty(n, dtype=alphabet.dtype)
    for start in range(0, n, _SCRATCH_BLOCK):
        size = min(_SCRATCH_BLOCK, n - start)
        letters[start : start + size] = rng.choice(alphabet, size=size, p=p)
    return letters


def _probabilities(probabilities: Sequence[Fraction] | None, k: int) -> list[Fraction]:
    """One positive probability per map, summing to 1; uniform by default."""
    if probabilities is None:
        return [Fraction(1, k)] * k
    probabilities = [Fraction(p) for p in probabilities]
    if len(probabilities) != k:
        raise ValueError(f"need one probability per map: {len(probabilities)} for {k} maps")
    if any(p <= 0 for p in probabilities) or sum(probabilities) != 1:
        raise ValueError("probabilities must be positive and sum to 1")
    return probabilities
