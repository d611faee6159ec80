"""Constructive stationary objects in the rational one-dimensional case.

When the irrationality condition fails, the walk maps h_i(x) = D_i x + a_i
preserve a finite set A + x0 with x0 = -a_1/(D_1 - 1); its exact transition
chain yields a finitely supported stationary measure.  For an IFS with all
translation differences rational, the carry process eta_{m+1} = D eta_m +
Dd_i mod 1 is a finite Markov chain whose exact stationary law enters the
limit measure nu * p * mu_K.  All linear algebra is exact over Q: a
doubly stochastic chain takes the uniform vector and any other chain goes to
the multi-modular solve, and either vector must pass the same exact residual
check.  The checks and the carry walk run on the integer residues q x of the
states x, not on Fractions or TorusPoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import fractal
from .exactcore import (
    ExactCheckError,
    IntMatrix,
    Scalar,
    TorusPoint,
    _multimodular_solve,
    frac,
)
from .spectral import CoefficientFunction, DiscreteMeasure, SelfSimilarSpec, convolve

__all__ = [
    "RationalityError",
    "ReducibleChainError",
    "ChainSizeError",
    "MAX_STATES",
    "FiniteStationary",
    "EtaChain",
    "build_finite_stationary",
    "build_eta_chain",
    "stationary_distribution",
    "alpha_orbit_measure",
    "limit_law_fourier",
    "rational_case_points",
]

_Q0 = Fraction(0)
_Q1 = Fraction(1)


class RationalityError(ValueError):
    """A quantity the construction requires to be rational is not."""


class ReducibleChainError(ValueError):
    """The transition structure is not irreducible."""


class ChainSizeError(ValueError):
    """The chain's modulus q exceeds MAX_STATES."""


#: Largest modulus q the two chain constructors accept: the report writes the
#: transition as a dense q x q table, growing as q^2; a stationary-support run
#: at q = 2021 peaks at 339 MB.  A doubly stochastic chain (bijective maps)
#: takes the uniform vector, certified by the same exact residual check as a
#: solved one, so it assembles no system; any other chain's solve assembles
#: an n x n system, and a vector with large entries needs many primes, each a
#: solve mod p: about 1 s per prime at q = 1024 (alpha = [0, 1/1024]).
MAX_STATES = 2048


# ---------------------------------------------------------------------------
# exact chain linear algebra
#
# A chain on states 0..n-1 is held as its sparse rows: row j maps each
# target i with T[j][i] != 0 to T[j][i], keys increasing.  Iterating a row
# yields the successors of its state, which is all the graph routines read.


def _check_row_stochastic(rows: Sequence[dict[int, Fraction]]) -> None:
    for row in rows:
        if any(x < 0 for x in row.values()) or sum(row.values()) != 1:
            raise ValueError("rows must be nonnegative and sum to 1")


def _residual_state(rows: Sequence[dict[int, Fraction]], v: Sequence[Fraction]) -> int | None:
    """First state i with sum_j v_j T[j][i] != v_i, or None when v T = v."""
    acc = [_Q0] * len(v)
    for vj, row in zip(v, rows):
        for i, x in row.items():
            acc[i] += vj * x
    return next((i for i, (a, x) in enumerate(zip(acc, v)) if a != x), None)


def _strong_components(rows: Sequence[Iterable[int]]) -> list[list[int]]:
    """Strongly connected components of the states reachable from state 0;
    `rows[u]` iterates over the successors of u, as a sparse row does.

    One iterative Tarjan pass (Tarjan, SIAM J. Comput. 1, 1972).  A component
    is listed before every component that reaches it, so the first one is
    closed; the graph is strongly connected iff the first holds every state.
    """
    n = len(rows)
    # discovery index: -1 while unvisited, n once its component is listed,
    # so that edges into listed components leave `low` alone
    order = [-1] * n
    low = [0] * n
    order[0] = low[0] = 0
    count = 1
    stack = [0]
    work = [(0, iter(rows[0]))]
    components: list[list[int]] = []
    while work:
        u, edges = work[-1]
        for v in edges:
            if order[v] < 0:
                order[v] = low[v] = count
                count += 1
                stack.append(v)
                work.append((v, iter(rows[v])))
                break
            low[u] = min(low[u], order[v])
        else:
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[u])
            if low[u] == order[u]:
                component = [stack.pop()]
                while component[-1] != u:
                    component.append(stack.pop())
                for v in component:
                    order[v] = n
                components.append(component)
    return components


def _irreducible(rows: Sequence[Iterable[int]]) -> bool:
    return len(_strong_components(rows)[0]) == len(rows)


def stationary_distribution(
    transition: Sequence[Sequence[Fraction]],
) -> tuple[Fraction, ...]:
    """Exact unique stationary vector of an irreducible row-stochastic matrix."""
    n = len(transition)
    if not n:
        raise ValueError("transition matrix is empty")
    if any(len(row) != n for row in transition):
        raise ValueError("transition matrix must be square")
    rows = [{j: x for j, x in enumerate(row) if x} for row in transition]
    _check_row_stochastic(rows)
    if not _irreducible(rows):
        raise ReducibleChainError("chain is reducible; stationary vector not unique")
    return _stationary_irreducible(rows)


def _stationary_irreducible(rows: Sequence[dict[int, Fraction]]) -> tuple[Fraction, ...]:
    """The stationary vector of a row-stochastic chain already known to be
    irreducible.

    When every column sums to 1 (a doubly stochastic chain, such as one whose
    maps permute the states) the vector is uniform (Levin, Peres & Wilmer,
    Markov Chains and Mixing Times, 2nd ed., 2017, ch. 1) and no system is
    solved; any other chain goes to the multi-modular solve.  Either vector
    must pass the same exact residual and sign checks.
    """
    n = len(rows)
    column_sums = [_Q0] * n
    for row in rows:
        for i, x in row.items():
            column_sums[i] += x
    if all(s == 1 for s in column_sums):
        v = [Fraction(1, n)] * n
    else:
        # solve v (T - I) = 0 with sum(v) = 1:   rows of A are columns of
        # T - I, the last one replaced by ones
        a = [[0] * n for _ in range(n - 1)]
        for j, row in enumerate(rows):
            for i, x in row.items():
                if i < n - 1:
                    a[i][j] = x
        for i in range(n - 1):
            a[i][i] -= 1
        a.append([_Q1] * n)
        b = [_Q0] * (n - 1) + [_Q1]
        v = _solve_exact(a, b)
    residual = _residual_state(rows, v)
    if residual is not None:
        raise ExactCheckError(f"stationarity residual nonzero at state {residual}")
    if any(x < 0 for x in v):
        raise ExactCheckError("stationary vector has a negative entry")
    return tuple(v)


def _solve_exact(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """The unique solution of the square system a x = b, certified by the
    multi-modular solve; a singular A raises ReducibleChainError."""
    v = _multimodular_solve(a, b)
    if v is None:
        raise ReducibleChainError("singular system; chain lacks a unique solution")
    return v


def _closed_class(rows: Sequence[Iterable[int]]) -> list[int]:
    """Sorted members of the smallest closed class reachable from state 0;
    on a tie in size, the class holding the smallest state."""
    components = _strong_components(rows)
    label = {}
    for c, members in enumerate(components):
        for u in members:
            label[u] = c
    closed = [
        members
        for c, members in enumerate(components)
        if all(label[v] == c for u in members for v in rows[u])
    ]
    return sorted(min(closed, key=lambda members: (len(members), min(members))))


def _terminal_class_stationary(rows: Sequence[dict[int, Fraction]]) -> tuple[Fraction, ...]:
    """Exact stationary vector supported on one closed recurrent class."""
    _check_row_stochastic(rows)
    members = _closed_class(rows)
    # the restricted chain is stochastic (the class is closed) and irreducible
    # (the class is strongly connected); members ascend, so its keys do too
    position = {u: i for i, u in enumerate(members)}
    sub = [{position[v]: x for v, x in rows[u].items()} for u in members]
    out = [_Q0] * len(rows)
    for m, val in zip(members, _stationary_irreducible(sub)):
        out[m] = val
    return tuple(out)


def _affine_chain(
    q: int,
    states: Sequence[int],
    mults: Sequence[int],
    shifts: Sequence[int],
    probabilities: Sequence[Fraction],
) -> tuple[dict[int, Fraction], ...]:
    """The sparse rows of the chain on the sorted residues `states` mod q in
    which state s moves to (m_k s + shift_k) mod q with probability p_k;
    every target must be a state."""
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for s in states:
        row: dict[int, Fraction] = {}
        for m, shift, p in zip(mults, shifts, probabilities):
            j = index[(m * s + shift) % q]
            row[j] = row.get(j, _Q0) + p
        rows.append(dict(sorted(row.items())))
    return tuple(rows)


def _residues(rationals: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The common denominator q of `rationals`, the modulus of the chain,
    and q x for each x."""
    q = math.lcm(*(x.denominator for x in rationals))
    if q > MAX_STATES:
        raise ChainSizeError(f"q = {q} exceeds the limit of {MAX_STATES} residues")
    return q, [x.numerator * (q // x.denominator) for x in rationals]


# ---------------------------------------------------------------------------
# finite stationary support (walk case)


@dataclass(frozen=True)
class FiniteStationary:
    """Finite invariant set A + x0 of the maps h_i(x) = D_i x + alpha_i,
    with an exact stationary vector on it."""

    x0: Scalar
    q: int
    a_values: tuple[Fraction, ...]
    transition: tuple[dict[int, Fraction], ...]
    stationary: tuple[Fraction, ...]
    d_values: tuple[int, ...]
    betas: tuple[Fraction, ...]
    probabilities: tuple[Fraction, ...]
    alphas: tuple[Scalar, ...]

    def map_state(self, i: int, a: Fraction) -> Fraction:
        """Image of a + x0 under h_i, expressed by its A-component."""
        return frac(self.d_values[i] * a + self.betas[i])

    def _support_residues(self) -> list[int]:
        """q a for each a in A, whose members are multiples of 1/q."""
        return [a.numerator * (self.q // a.denominator) for a in self.a_values]

    def pushforward_is_stationary(self) -> bool:
        """Exact check that sum_i P_i (h_i)_* nu = nu as atomic measures, on
        the residues: h_i sends a + x0 to x0 + ((D_i q a + q beta_i) mod q)/q,
        as map_state does."""
        residues = self._support_residues()
        position = {r: j for j, r in enumerate(residues)}
        acc = [_Q0] * len(residues)
        for d, beta, p in zip(self.d_values, self.betas, self.probabilities):
            shift = beta.numerator * (self.q // beta.denominator)
            for r, w in zip(residues, self.stationary):
                acc[position[(d * r + shift) % self.q]] += p * w
        return acc == list(self.stationary)

    def support_is_invariant(self) -> bool:
        """Exact check that every map h_i(x) = D_i x + alpha_i sends the
        support A + x0 into itself.

        h_i(x0 + a) = x0 + D_i a + c_i with c_i = h_i(x0) - x0 = (D_i - 1) x0
        + alpha_i, formed once per map in Scalar arithmetic from the kept x0
        and alphas (never from the betas).  The image lies in A + x0 (mod 1)
        iff c_i is rational, q c_i is an integer and (D_i q a + q c_i) mod q
        is some q a' of A.
        """
        residues = self._support_residues()
        support = set(residues)
        for d, alpha in zip(self.d_values, self.alphas):
            c = self.x0 * (d - 1) + alpha
            if not c.is_rational():
                return False
            shift = c.rational_part * self.q
            if shift.denominator != 1:
                return False
            if any((d * r + shift.numerator) % self.q not in support for r in residues):
                return False
        return True

    def stationary_is_exact(self) -> bool:
        """Exact check that v T = v for the stationary vector v."""
        return _residual_state(self.transition, self.stationary) is None


def build_finite_stationary(
    d_values: Sequence[int],
    alphas: Sequence[Scalar],
    probabilities: Sequence[Fraction] | None = None,
) -> FiniteStationary:
    """Construct the finite stationary support for h_i(x) = D_i x + alpha_i.

    Requires every beta_j = alpha_j - (D_j - 1)/(D_1 - 1) alpha_1 to be
    rational; otherwise the irrationality condition holds and no finitely
    supported stationary measure exists this way.
    """
    k = len(d_values)
    if k == 0 or len(alphas) != k:
        raise ValueError("need one alpha per D")
    if any(abs(d) < 2 for d in d_values):
        raise ValueError("all D_i must be expanding (|D_i| >= 2)")
    probabilities = fractal._probabilities(probabilities, k)

    d1 = d_values[0]
    x0 = alphas[0] * Fraction(-1, d1 - 1)
    betas = []
    for d, alpha in zip(d_values, alphas):
        beta = alpha - alphas[0] * Fraction(d - 1, d1 - 1)
        if not beta.is_rational():
            raise RationalityError(
                "beta_j is irrational: the irrationality condition holds "
                "and the walk has no finite stationary support of this form"
            )
        betas.append(frac(beta.rational_part))

    # frac(d i/q + beta) = ((d i + q beta) mod q) / q
    q, shifts = _residues(betas)
    transition = _affine_chain(q, range(q), d_values, shifts, probabilities)
    stationary = _terminal_class_stationary(transition)
    return FiniteStationary(
        x0=x0,
        q=q,
        a_values=tuple(Fraction(i, q) for i in range(q)),
        transition=transition,
        stationary=stationary,
        d_values=tuple(int(d) for d in d_values),
        betas=tuple(betas),
        probabilities=tuple(probabilities),
        alphas=tuple(alphas),
    )


# ---------------------------------------------------------------------------
# the eta carry chain (IFS rational-difference case)


@dataclass(frozen=True)
class EtaChain:
    """Finite-state carry process eta_{m+1} = D eta_m + Dd_{i_{m+1}} mod 1 of
    the IFS x -> x/D + t_i it was built from, d_i = t_i - t_1."""

    d_value: int
    translations: tuple[Scalar, ...]
    q: int
    states: tuple[Fraction, ...]
    deltas_tilde: tuple[Fraction, ...]
    probabilities: tuple[Fraction, ...]
    transition: tuple[dict[int, Fraction], ...]
    stationary: tuple[Fraction, ...]

    def walk(self, letters: np.ndarray) -> np.ndarray:
        """State indices of eta_1, ..., eta_n along n 1-based letters.

        eta_1 = Dd_{i_1} is the step from eta_0 = 0, a state since delta_1 =
        0; the residues q eta_m come from the closed form of _carry_residues
        and one lookup turns them into state indices.
        """
        indices = fractal._letter_indices(letters, len(self.deltas_tilde))
        q = self.q
        states = np.array([a.numerator * (q // a.denominator) for a in self.states])
        shifts = np.array([x.numerator * (q // x.denominator) for x in self.deltas_tilde])
        position = np.full(q, -1, dtype=np.int64)
        position[states] = np.arange(len(states))
        if np.any(position[(self.d_value % q * states[:, None] + shifts) % q] < 0):
            raise ValueError("the carry step leads out of the state set")
        path = np.empty(indices.size, dtype=np.int64)
        for start, residues in _carry_residues(self.d_value, q, shifts, indices):
            path[start : start + residues.size] = position[residues]
        return path

    def stationary_measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.states, self.stationary)

    def state_frequencies(self, path: np.ndarray) -> tuple[list[tuple[Fraction, Fraction, float]], float]:
        """Rows (state, stationary weight, empirical frequency along the state
        indices `path`), and max |empirical - stationary| in float64."""
        freq = np.bincount(path, minlength=len(self.states)) / len(path)
        exact_p = np.array([float(x) for x in self.stationary])
        rows = list(zip(self.states, self.stationary, freq.tolist()))
        return rows, float(np.max(np.abs(freq - exact_p)))


#: letters per block of _carry_residues: its int64 temporaries stay small
#: next to the path they fill
_CARRY_BLOCK = 8192


def _carry_residues(d: int, q: int, shifts: np.ndarray, indices: np.ndarray):
    """Yield (start, s) over blocks of the 0-based letter `indices`, with s
    the residues s_m, m = start + 1, ..., of s_m = (d s_{m-1} + c_m) mod q
    from s_0 = 0, c_m = shifts[indices[m - 1]].

    Closed form: s_m = sum_{j <= m} d^(m-j) c_j mod q.  Split q = q1 q2 with
    d a unit mod q1 and every prime of q2 dividing d, so d^E = 0 mod q2 for
    some E <= log2 q2.  Mod q1, s_m = d^m (s_0 + sum_{j <= m} d^-j c_j),
    with the powers read from one period of d mod q1; mod q2 only the last E
    letters and, for m < E, s_0 count.  The CRT joins the two: s = e1 (s mod
    q1) + e2 (s mod q2) mod q, and e1 x, e2 y mod q depend only on x mod q1
    and y mod q2, so the weights e1 and e2 ride in the powers.  Each block
    starts from the last residue of the one before.  Every int64 below stays
    under 2^13 q^2 + q^3, so none overflows for q < 2^20.
    """
    q1 = q
    while (g := math.gcd(q1, d)) > 1:
        q1 //= g
    q2 = q // q1
    e1 = q2 * pow(q2, -1, q1)
    e2 = q1 * pow(q1, -1, q2)
    # e2 d^e mod q for e < E
    nilpotent = []
    power = 1 % q2
    while power:
        nilpotent.append(e2 * power % q)
        power = power * d % q2
    # one period of d^e mod q1, e >= 0, then d^e e1 and d^-e for e = 1..block
    period = [1 % q1]
    power = d % q1
    while power != period[0]:
        period.append(power)
        power = power * d % q1
    period = np.array(period, dtype=np.int64)
    reps = _CARRY_BLOCK // period.size + 2
    up = np.tile(period * e1, reps)[1 : _CARRY_BLOCK + 1]
    down = np.tile(np.roll(period[::-1], 1), reps)[1 : _CARRY_BLOCK + 1]
    last = 0  # s_0
    for start in range(0, indices.size, _CARRY_BLOCK):
        c = shifts[indices[start : start + _CARRY_BLOCK]]
        size = c.size
        s = down[:size] * c
        np.cumsum(s, out=s)
        s += last % q1
        s %= q1
        s *= up[:size]
        for e, power in enumerate(nilpotent[:size]):
            s[e:] += power * c[: size - e]
        for m, power in enumerate(nilpotent[1 : size + 1]):
            s[m] += power * (last % q2)
        s %= q
        last = int(s[-1])
        yield start, s


def build_eta_chain(
    d_value: int,
    translations: Sequence[Scalar],
    probabilities: Sequence[Fraction] | None = None,
) -> EtaChain:
    """Build the carry chain for an IFS x -> x/D + t_i with rational t_i - t_1.

    The state set is the forward-reachable part of {0, 1/q, ..., (q-1)/q};
    irreducibility is verified structurally.
    """
    k = len(translations)
    if k < 1:
        raise ValueError("need at least one translation")
    if abs(d_value) < 2:
        raise ValueError("D must be expanding (|D| >= 2)")
    probabilities = fractal._probabilities(probabilities, k)

    deltas = []
    for t in translations:
        diff = t - translations[0]
        if not diff.is_rational():
            raise RationalityError("translation differences must all be rational")
        deltas.append(diff.rational_part)
    q, numerators = _residues(deltas)
    shifts = [d_value * r % q for r in numerators]  # q frac(D delta_i)
    # delta_1 = 0, so state 0 reaches every Dd_i in one step: the states
    # reachable from 0 are those reachable from the law of eta_1
    components = _strong_components([[(d_value * r + s) % q for s in shifts] for r in range(q)])
    if len(components) > 1:
        raise ReducibleChainError("eta chain is not irreducible on its state set")
    reachable = sorted(components[0])
    transition = _affine_chain(q, reachable, [d_value] * k, shifts, probabilities)
    _check_row_stochastic(transition)
    # No period check: 0 is a state with the self-loop 0 -> 0 of probability
    # p_1 > 0, and an irreducible chain with a self-loop is aperiodic.
    stationary = _stationary_irreducible(transition)
    return EtaChain(
        d_value=int(d_value),
        translations=tuple(translations),
        q=q,
        states=tuple(Fraction(r, q) for r in reachable),
        deltas_tilde=tuple(Fraction(s, q) for s in shifts),
        probabilities=tuple(probabilities),
        transition=transition,
        stationary=stationary,
    )


# ---------------------------------------------------------------------------
# limit law nu * p * mu_K


def _alpha_orbit(
    d_value: int, t1: Fraction
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """c = D t1 / (D - 1), and the preperiod and the cycle of the times-D
    orbit frac(D^m c), m >= 1, which is eventually periodic for rational c.
    alpha_m = D^m c - c runs through them."""
    c = Fraction(d_value, d_value - 1) * Fraction(t1)
    seen: dict[Fraction, int] = {}
    orbit: list[Fraction] = []
    x = frac(c * d_value)
    while x not in seen:
        seen[x] = len(orbit)
        orbit.append(x)
        x = frac(x * d_value)
    return c, orbit[: seen[x]], orbit[seen[x] :]


def alpha_orbit_measure(d_value: int, t1: Fraction) -> DiscreteMeasure:
    """Limit distribution of alpha_m = D^m c - c with c = D t1 / (D - 1).

    The times-D orbit of the rational c is eventually periodic; the limit law
    is uniform on the cycle, translated by -c.
    """
    c, _, cycle = _alpha_orbit(d_value, t1)
    return DiscreteMeasure.uniform([v - c for v in cycle])


def limit_law_fourier(eta: EtaChain) -> CoefficientFunction:
    """Fourier coefficients of nu * p * mu_K for the chain's IFS x -> x/D + t_i.

    Requires t_1 rational (so nu is an exactly computable atomic measure, and
    every t_i is rational since the differences are); p comes from the eta
    chain and mu_K from the self-similar product formula.
    """
    t1 = eta.translations[0]
    if not t1.is_rational():
        raise RationalityError(
            "t_1 is irrational: nu is not finitely computable; "
            "only empirical comparison is available"
        )
    nu = alpha_orbit_measure(eta.d_value, t1.rational_part)
    atoms = [t.rational_part for t in eta.translations]
    mu = SelfSimilarSpec.create(eta.d_value, atoms, eta.probabilities)
    return convolve(
        convolve(nu.coefficients(), eta.stationary_measure().coefficients()), mu.coefficients()
    )


# ---------------------------------------------------------------------------
# float64 orbit of the rational case


_UNIT_ROUNDOFF = 2.0 ** -53


def _float_and_error(s: Scalar) -> tuple[float, float]:
    """float(s) and a bound on its distance from s."""
    val, err = s.evaluate(64)
    f = float(val)
    return f, float(err) + abs(f) * _UNIT_ROUNDOFF


def rational_case_points(eta: EtaChain, rng: np.random.Generator, n: int):
    """n points x_m = alpha_m + eta_m + pi(T^m i) of the rational-difference
    walk in float64, along n letters drawn with the chain's law plus enough
    tail letters that the truncated coding tail stays below 2^-60 max|t_i|
    / (1 - 1/|D|).

    Returns (sample, eta state index per step): the points with their
    per-point error bound and the precision of the alpha orbit, None when
    t_1 is rational.
    """
    tail_len = max(8, math.ceil(60 / math.log2(abs(eta.d_value)))) + 4
    letters = fractal.walk_letter_stream(eta.probabilities, rng, n + tail_len)
    return _rational_case_points(eta, letters, n)


def _rational_case_points(eta: EtaChain, letters: np.ndarray, n_steps: int):
    """Points x_m = alpha_m + eta_m + pi(T^m i) of the rational case in
    float64, m < n_steps, along `letters` (n_steps letters plus the tail).

    Returns what rational_case_points returns.  The bound, with u = 2^-53,
    L the tail length, T = max|t_i|, G = 1 / (1 - 1/|D|), adds: the
    truncated tail T |D|^-L G; the moving sum, whose terms carry the float
    error of t_i plus at most (j + 2) u from (1/D)^j, u from the product and
    (L - 1) u from the additions, below (2L + 4) u T G plus the t_i errors
    times G; the float error of alpha_m and of the states eta_m; and
    u |partial sum| for each of the two additions plus u for mod 1.
    """
    d_value = eta.d_value
    tail_len = len(letters) - n_steps

    eta_idx = eta.walk(letters[:n_steps])
    indices = fractal._letter_indices(letters, len(eta.translations))

    # coded tails pi(T^m i) via a truncated moving sum (double precision)
    t_pairs = [_float_and_error(s) for s in eta.translations]
    tarr = np.array([f for f, _ in t_pairs])[indices]
    weights = (1.0 / d_value) ** np.arange(tail_len)
    tails = np.zeros(n_steps)
    term = np.empty(n_steps)
    for j in range(tail_len):
        tails += np.multiply(tarr[1 + j : 1 + j + n_steps], weights[j], out=term)
    del tarr, term  # freed before the arrays below are formed

    # alpha_m: the exact preperiod and cycle when t_1 is rational, the
    # fixed-point orbit otherwise
    t1 = eta.translations[0]
    precision_used = None
    if t1.is_rational():
        c, preperiod, cycle = _alpha_orbit(d_value, t1.rational_part)
        head = [float(frac(o - c)) for o in preperiod[:n_steps]]
        repeat = [float(frac(o - c)) for o in cycle]
        rest = n_steps - len(head)
        alphas = np.concatenate([head, np.tile(repeat, -(-rest // len(repeat)))[:rest]])
        alpha_err = _UNIT_ROUNDOFF
    else:
        c_scalar = t1 * Fraction(d_value, d_value - 1)
        endo = fractal.AffineEndo(IntMatrix.scalar(d_value), (Scalar.rational(0, t1.basis),))
        orb = fractal.walk_orbit_fixed(
            [endo], TorusPoint([c_scalar]), np.ones(n_steps, dtype=np.int8)
        )
        precision_used = orb.precision_bits
        c_float, c_err = _float_and_error(c_scalar)
        alphas = (orb.points[:, 0] - c_float) % 1.0
        alpha_err = orb.error_bound + c_err + (2.0 + abs(c_float)) * _UNIT_ROUNDOFF

    state_floats = np.array([float(a) for a in eta.states])
    points = (alphas + state_floats[eta_idx] + tails) % 1.0

    geo = 1.0 / (1.0 - 1.0 / abs(d_value))
    t_max = max(abs(f) for f, _ in t_pairs)
    t_err = max(e for _, e in t_pairs)
    s_max = float(max(abs(a) for a in eta.states))
    bound = (
        t_max * abs(d_value) ** -tail_len * geo
        + ((2 * tail_len + 4) * _UNIT_ROUNDOFF * t_max + t_err) * geo
        + alpha_err
        + s_max * _UNIT_ROUNDOFF
        + (2.0 * (1.0 + s_max + t_max * geo) + 1.0) * _UNIT_ROUNDOFF
    )
    return fractal.OrbitSample(points, bound, precision_used), eta_idx
