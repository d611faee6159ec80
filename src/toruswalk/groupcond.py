"""Decide whether a finite subset of T^d is contained in a proper closed
subgroup, and evaluate the irrationality conditions on walk and IFS data.

By Pontryagin duality the closed subgroups of T^d correspond to subgroups of
Z^d: a finite set S is contained in a proper closed subgroup iff some nonzero
k in Z^d has k.s in Z for every s in S.  Writing each coordinate as rational
part plus rational combinations of declared irrationals, k must annihilate
every irrational-coefficient vector exactly, so S is dense iff those vectors
span Q^d.  All rank and kernel computations are exact over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactcore import (
    ExactCheckError,
    IntMatrix,
    Scalar,
    TorusPoint,
    commute,
    is_expanding,
    mat_apply,
    _bareiss_reduce,
)

__all__ = ["DensityVerdict", "is_dense", "condition_walk", "condition_ifs"]

_Q0 = Fraction(0)


@dataclass(frozen=True)
class DensityVerdict:
    """Outcome of the proper-closed-subgroup test.

    When not dense, `witness` is a nonzero integer vector with k.s in Z
    exactly for every tested point.
    """

    dense: bool
    witness: tuple[int, ...] | None
    tested: tuple[TorusPoint, ...]

    def witness_pairs_integral(self) -> bool:
        """Exact re-verification that the witness annihilates every point."""
        if self.dense:
            return self.witness is None
        if self.witness is None or all(x == 0 for x in self.witness):
            return False
        for point in self.tested:
            acc = Scalar.rational(0, point.basis)
            for k, s in zip(self.witness, point.coords):
                acc = acc + s * k
            if not acc.is_rational() or acc.rational_part.denominator != 1:
                return False
        return True


def _rank_and_kernel(
    columns: list[list[Fraction]], d: int
) -> tuple[int, list[Fraction] | None]:
    """Rank over Q of the d x m column family and, if rank < d, a nonzero
    rational vector k with k.c = 0 for every column c."""
    # The right kernel of the m x d matrix whose rows are the columns is the
    # annihilator we need.
    reduced, pivots, scale, _ = _bareiss_reduce(columns, d)
    if len(pivots) == d:
        return d, None
    free = next(c for c in range(d) if c not in pivots)
    k = [_Q0] * d
    k[free] = Fraction(1)
    for row, c in zip(reduced, pivots):
        k[c] = Fraction(-row[free], scale)
    return len(pivots), k


def is_dense(points: Sequence[TorusPoint]) -> DensityVerdict:
    """Test whether a finite set generates a dense subgroup of T^d."""
    pts = list(points)
    if not pts:
        raise ValueError("empty set")
    d = pts[0].dimension
    basis = pts[0].basis
    for p in pts[1:]:
        if p.dimension != d:
            raise ValueError("dimension mismatch")
        if p.basis.symbols != basis.symbols:
            raise ValueError("points use different irrational bases")

    columns = []
    for p in pts:
        for b in range(len(basis)):
            col = [s.coeffs[1 + b] for s in p.coords]
            if any(x != 0 for x in col):
                columns.append(col)
    rank, kernel = (0, None) if not columns else _rank_and_kernel(columns, d)
    if rank == d:
        return DensityVerdict(dense=True, witness=None, tested=tuple(pts))

    if kernel is None:
        kernel = [_Q0] * d
        kernel[0] = Fraction(1)
    denom = lcm(*(q.denominator for q in kernel))
    k_int = [int(q * denom) for q in kernel]
    g = gcd(*k_int)
    k_int = [x // g for x in k_int]

    # clear the rational parts: k.s must land in Z, not just kill irrationals
    scale = 1
    for p in pts:
        acc = sum((k * s.rational_part for k, s in zip(k_int, p.coords)), _Q0)
        scale = lcm(scale, acc.denominator)
    witness = tuple(x * scale for x in k_int)
    verdict = DensityVerdict(dense=False, witness=witness, tested=tuple(pts))
    if not verdict.witness_pairs_integral():
        raise ExactCheckError(f"witness {witness} does not pair the set into Z")
    return verdict


def condition_walk(
    d_matrices: Sequence[IntMatrix], alphas: Sequence[TorusPoint]
) -> DensityVerdict:
    """Irrationality condition for the walk maps h_i(x) = D_i x + alpha_i:
    density of {(I - D_i) alpha_j - (I - D_j) alpha_i}."""
    if len(d_matrices) != len(alphas):
        raise ValueError("need one translation per matrix")
    if len(d_matrices) < 2:
        raise ValueError("need at least two maps")
    for i, a in enumerate(d_matrices):
        if not is_expanding(a):
            raise ValueError(f"matrix {a} is not expanding")
        for b in d_matrices[i + 1 :]:
            if not commute(a, b):
                raise ValueError(f"matrices {a} and {b} do not commute")
    d = d_matrices[0].dimension
    ident = IntMatrix.identity(d)
    diffs = []
    for i, (di, ai) in enumerate(zip(d_matrices, alphas)):
        for j, (dj, aj) in enumerate(zip(d_matrices, alphas)):
            left = mat_apply((ident - di).rows, aj.coords)
            right = mat_apply((ident - dj).rows, ai.coords)
            diffs.append(TorusPoint([x - y for x, y in zip(left, right)]))
    return is_dense(diffs)


def condition_ifs(
    d_matrix: IntMatrix, exponents: Sequence[int], translations: Sequence[TorusPoint]
) -> DensityVerdict:
    """Irrationality condition for the IFS f_i(x) = D^{-r_i} x + t_i:
    density of {D^{r_j} t_i - D^{r_i} t_j}."""
    if len(exponents) != len(translations):
        raise ValueError("need one exponent per translation")
    if len(translations) < 2:
        raise ValueError("need at least two maps")
    if any(r < 1 for r in exponents):
        raise ValueError("exponents must be positive")
    if not is_expanding(d_matrix):
        raise ValueError(f"matrix {d_matrix} is not expanding")
    powers = {r: d_matrix ** r for r in set(exponents)}
    diffs = []
    for ri, ti in zip(exponents, translations):
        for rj, tj in zip(exponents, translations):
            left = powers[rj].apply(ti.coords)
            right = powers[ri].apply(tj.coords)
            diffs.append(TorusPoint([x - y for x, y in zip(left, right)]))
    return is_dense(diffs)
