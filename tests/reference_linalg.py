"""Exact linear algebra and chain-graph routines as first written, kept as
references for the fraction-free elimination, the Tarjan pass, the exact
expansion test and the fraction-free fixed-point conversion.

Three Gauss-Jordan eliminations over Fraction (inverse, chain solve, rank and
kernel), the division-by-previous-pivot determinant, the reachability
searches that decided irreducibility and picked the terminal class, the
carry chain's own search and fill over Fractions, its walk through a table
of successors one letter at a time, the invariance and pushforward checks
of a finite stationary support over TorusPoints and Fractions, the
expansion test that probed roots of unity and then read float eigenvalues,
and the fixed-point conversion of a Scalar through its Fraction value.  The
library must agree with them exactly (see test_exact_elimination.py and
test_exactcore.py); nothing in src/ imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from toruswalk import fractal
from toruswalk.chains import EtaChain, FiniteStationary, ReducibleChainError
from toruswalk.exactcore import IntMatrix, Scalar, TorusPoint, frac

_Q0 = Fraction(0)


class IndeterminateExpansionError(ArithmeticError):
    """The float eigenvalue test cannot decide inside its margin band."""


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    d = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if m[k][k] == 0:
            for i in range(k + 1, d):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def inverse_rational(rows: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse as a Fraction matrix (Gauss-Jordan over Q)."""
    d = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
        for i, row in enumerate(rows)
    ]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def solve_exact(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solution of a x = b for square nonsingular a (Gauss-Jordan over Q)."""
    n = len(a)
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ReducibleChainError("singular system; chain lacks a unique solution")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def rank_and_kernel(
    columns: list[list[Fraction]], d: int
) -> tuple[int, list[Fraction] | None]:
    """Rank over Q of the d x m column family and, if rank < d, a nonzero
    rational vector k with k.c = 0 for every column c."""
    rows = [list(col) for col in columns]
    pivots: list[int] = []
    r = 0
    for c in range(d):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == d:
            return d, None
    free = next(c for c in range(d) if c not in pivots)
    k = [_Q0] * d
    k[free] = Fraction(1)
    for i, c in enumerate(pivots):
        k[c] = -rows[i][free]
    return r, k


def reach(start: int, edges: list[list[int]]) -> set[int]:
    """States reachable from `start`, itself included."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in edges[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def strongly_connected(adj: list[list[int]]) -> bool:
    """Every state reaches state 0 and is reached from it."""
    n = len(adj)
    radj: list[list[int]] = [[] for _ in range(n)]
    for u, outs in enumerate(adj):
        for v in outs:
            radj[v].append(u)
    return len(reach(0, adj)) == n and len(reach(0, radj)) == n


def terminal_class(adj: list[list[int]]) -> list[int]:
    """Sorted members of the first smallest forward closure among the states
    reachable from state 0: a state whose closure is minimal spans a closed
    class."""
    best: set[int] | None = None
    for s in sorted(reach(0, adj)):
        c = reach(s, adj)
        if best is None or len(c) < len(best):
            best = c
    return sorted(best)


def eta_chain(
    d_value: int, deltas: Sequence[Fraction], probabilities: Sequence[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Sorted states and dense transition of the carry chain eta -> frac(D eta
    + D delta_i): the states forward-reachable from the law of eta_1, found by
    a search over Fractions, and the transition filled over Fractions."""
    deltas_tilde = [frac(d_value * d) for d in deltas]
    states: list[Fraction] = []
    seen: set[Fraction] = set()
    frontier = list(dict.fromkeys(deltas_tilde))
    while frontier:
        a = frontier.pop()
        if a in seen:
            continue
        seen.add(a)
        states.append(a)
        for dt in deltas_tilde:
            nxt = frac(d_value * a + dt)
            if nxt not in seen:
                frontier.append(nxt)
    states.sort()
    index = {a: i for i, a in enumerate(states)}
    n = len(states)
    transition = [[_Q0] * n for _ in range(n)]
    for a in states:
        for dt, p in zip(deltas_tilde, probabilities):
            transition[index[a]][index[frac(d_value * a + dt)]] += p
    return states, transition


def eta_walk(eta: EtaChain, letters) -> np.ndarray:
    """State indices of eta_1, ..., eta_n along 1-based letters, from eta_0 =
    0 through a table of each state's successor under each letter."""
    k = len(eta.deltas_tilde)
    index = {a: i for i, a in enumerate(eta.states)}
    table = [[index[eta.next_state(a, j)] for j in range(1, k + 1)] for a in eta.states]
    state = index[_Q0]
    path = []
    for a in fractal._letter_indices(letters, k).tolist():
        state = table[state][a]
        path.append(state)
    return np.array(path, dtype=np.int64)


def support_is_invariant(fs: FiniteStationary) -> bool:
    """Every map h_i(x) = D_i x + alpha_i, applied as an AffineEndo to each
    TorusPoint x0 + a, lands in the support."""
    support = {TorusPoint([fs.x0 + a]) for a in fs.a_values}
    return all(
        fractal.AffineEndo(IntMatrix.scalar(d), (alpha,))(pt) in support
        for d, alpha in zip(fs.d_values, fs.alphas)
        for pt in support
    )


def pushforward_is_stationary(fs: FiniteStationary) -> bool:
    """sum_i P_i (h_i)_* nu = nu, accumulated over the Fractions of A."""
    acc: dict[Fraction, Fraction] = {a: _Q0 for a in fs.a_values}
    for i, p in enumerate(fs.probabilities):
        for a, w in zip(fs.a_values, fs.stationary):
            acc[fs.map_state(i, a)] += p * w
    return all(acc[a] == w for a, w in zip(fs.a_values, fs.stationary))


def is_expanding(d_matrix: IntMatrix, margin: float = 1e-9) -> bool:
    """True iff every complex eigenvalue has modulus > 1.

    Integer-decidable obstructions (|det| < 2, or a root-of-unity eigenvalue
    detected by det(D^k - I) = 0 for k <= 12) return False exactly; the rest
    is decided numerically with the given margin, raising
    IndeterminateExpansionError inside the margin band.
    """
    if abs(d_matrix.det()) < 2:
        return False
    ident = IntMatrix.identity(d_matrix.dimension)
    power = ident
    for _ in range(12):
        power = power @ d_matrix
        if (power - ident).det() == 0:
            return False
    eig = np.linalg.eigvals(d_matrix.as_array())
    low = float(np.min(np.abs(eig)))
    if low > 1.0 + margin:
        return True
    if low < 1.0 - margin:
        return False
    raise IndeterminateExpansionError(
        f"minimal eigenvalue modulus {low!r} within {margin} of 1"
    )


def fixed_point(scalar: Scalar, bits: int) -> tuple[int, int]:
    """(X, E) of Scalar.fixed_point, through the Fraction value and bound."""
    val, err = scalar.evaluate(bits + 8)
    scaled = val * (1 << bits)
    x = scaled.numerator // scaled.denominator
    e = err * (1 << bits)
    return x, 1 + (e.numerator // e.denominator) + 1
