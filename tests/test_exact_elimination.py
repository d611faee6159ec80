"""Differential tests: the fraction-free elimination and the Tarjan pass
against the Fraction Gauss-Jordan routines and reachability searches, the
multi-modular chain solve against both, the carry chain built on integer
residues against its search and fill over Fractions, its closed-form walk
against the walk through a table of successors, and the residue checks of a
finite stationary support against the TorusPoint and Fraction checks.

reference_linalg.py keeps the routines as first written.  Determinants,
inverses, chain solves, ranks, kernel vectors and terminal classes must be
identical, and singular input must raise the same error with the same
message.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_linalg as ref
from toruswalk import chains, exactcore
from toruswalk.exactcore import (
    ExactCheckError,
    IntMatrix,
    Scalar,
    _bareiss_reduce,
    _multimodular_solve,
    _rational_reconstruction,
    _word_primes,
)
from toruswalk.groupcond import _rank_and_kernel

# The 32 largest primes below 2^31, the fixed table the multi-modular solve
# drew from before it drew primes on demand: every solve those primes
# certified must still see the same primes in the same order.
WORD_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921,
)

small_ints = st.integers(-6, 6)
fractions = st.fractions(min_value=-4, max_value=4, max_denominator=9)


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return "raised", (type(exc), str(exc))


@st.composite
def matrices(draw, entries, max_dim=6):
    """Square d x d matrices, d = 1..max_dim, often singular: a drawn share
    of the rows are combinations of the others."""
    d = draw(st.integers(1, max_dim))
    rows = [draw(st.lists(entries, min_size=d, max_size=d)) for _ in range(d)]
    for i in range(d):
        if i and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=i, max_size=i))
            rows[i] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(d)]
    perm = draw(st.permutations(range(d)))
    return [rows[i] for i in perm]


@st.composite
def column_families(draw):
    """m columns in Q^d, d = 1..6, spanning a drawn rank r <= d."""
    d = draw(st.integers(1, 6))
    r = draw(st.integers(0, d))
    basis = [draw(st.lists(fractions, min_size=d, max_size=d)) for _ in range(r)]
    m = draw(st.integers(1, 8))
    columns = []
    for _ in range(m):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        columns.append(
            [sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0)) for j in range(d)]
        )
    return columns, d


def chain_rows(rng: np.random.Generator, n: int, density: float) -> list[list[Fraction]]:
    """A random row-stochastic Fraction matrix; every row has an entry."""
    rows = []
    for i in range(n):
        weights = [int(w) if rng.random() < density else 0 for w in rng.integers(1, 7, n)]
        if not any(weights):
            weights[int(rng.integers(n))] = 1
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return rows


def stationary_system(transition):
    """v (T - I) = 0 with sum(v) = 1, as stationary_distribution states it."""
    n = len(transition)
    a = [[transition[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    a[n - 1] = [Fraction(1)] * n
    return a, [Fraction(0)] * (n - 1) + [Fraction(1)]


class TestMatrices:
    @settings(max_examples=300, deadline=None)
    @given(matrices(small_ints))
    def test_det(self, rows):
        assert IntMatrix.from_rows(rows).det() == ref.det(rows)

    @settings(max_examples=300, deadline=None)
    @given(matrices(small_ints))
    def test_inverse(self, rows):
        new = outcome(IntMatrix.from_rows(rows).inverse_rational)
        assert new == outcome(ref.inverse_rational, rows)

    @settings(max_examples=150, deadline=None)
    @given(matrices(fractions), st.data())
    def test_solve(self, a, data):
        b = data.draw(st.lists(fractions, min_size=len(a), max_size=len(a)))
        assert outcome(chains._solve_exact, a, b) == outcome(ref.solve_exact, a, b)

    @settings(max_examples=200, deadline=None)
    @given(column_families())
    def test_rank_and_kernel(self, family):
        columns, d = family
        assert _rank_and_kernel(columns, d) == ref.rank_and_kernel(columns, d)

    @settings(max_examples=100, deadline=None)
    @given(column_families())
    def test_pivots_share_one_scale(self, family):
        columns, d = family
        reduced, pivots, scale, _ = _bareiss_reduce(columns, d)
        for i, row in enumerate(reduced):
            assert [row[c] for c in pivots] == [scale if k == i else 0 for k in range(len(pivots))]
            if i >= len(pivots):
                assert not any(row)

    def test_stationary_solve_60_states(self):
        transition = chain_rows(np.random.default_rng(60), 60, 0.3)
        a, b = stationary_system(transition)
        assert chains.stationary_distribution(transition) == tuple(ref.solve_exact(a, b))


@st.composite
def digraphs(draw):
    """Digraphs on n = 1..14 states, every state with an out-edge: a drawn
    number of blocks, each a cycle plus extra edges inside it (so closed and
    strongly connected, often of equal sizes), and transient states with
    edges anywhere."""
    n = draw(st.integers(1, 14))
    blocks = draw(st.integers(1, min(4, n)))
    label = [draw(st.integers(0, blocks)) for _ in range(n)]  # `blocks` marks transient
    if draw(st.booleans()):
        label[0] = blocks  # state 0 then often reaches several closed blocks
    adj = [set() for _ in range(n)]
    for b in range(blocks):
        members = [u for u in range(n) if label[u] == b]
        for u, v in zip(members, members[1:] + members[:1]):
            adj[u].add(v)
    for u in range(n):
        allowed = [v for v in range(n) if label[u] == blocks or label[v] == label[u]]
        adj[u].update(draw(st.lists(st.sampled_from(allowed), max_size=3)))
        if not adj[u]:
            adj[u].add(draw(st.sampled_from(allowed)))
    return [sorted(outs) for outs in adj]


class TestGraphs:
    @settings(max_examples=250, deadline=None)
    @given(digraphs())
    def test_components(self, adj):
        components = chains._strong_components(adj)
        # exactly the mutual-reachability classes of the states seen from 0
        forward = {u: ref.reach(u, adj) for u in ref.reach(0, adj)}
        classes = {
            frozenset(v for v in forward if u in forward[v] and v in forward[u]) for u in forward
        }
        assert len(components) == len(classes)
        assert {frozenset(c) for c in components} == classes
        # each component is listed before every component that reaches it
        position = {u: i for i, c in enumerate(components) for u in c}
        assert all(position[v] <= position[u] for u in forward for v in adj[u])

    @settings(max_examples=250, deadline=None)
    @given(digraphs())
    # two closed classes of size 2: the one holding the smallest state wins
    @example([[1, 2], [4], [3], [2], [1]])
    def test_terminal_class(self, adj):
        assert chains._closed_class(adj) == ref.terminal_class(adj)

    @settings(max_examples=250, deadline=None)
    @given(digraphs())
    def test_irreducible(self, adj):
        assert chains._irreducible(adj) == ref.strongly_connected(adj)

    @settings(max_examples=100, deadline=None)
    @given(digraphs(), st.integers(0, 2**32 - 1))
    def test_terminal_class_stationary(self, adj, seed):
        rng = np.random.default_rng(seed)
        transition = []
        for outs in adj:
            weights = [int(w) for w in rng.integers(1, 5, len(outs))]
            transition.append({v: Fraction(w, sum(weights)) for v, w in zip(outs, weights)})
        members = ref.terminal_class(adj)
        a, b = stationary_system([[transition[u].get(v, Fraction(0)) for v in members] for u in members])
        expected = [Fraction(0)] * len(adj)
        for m, x in zip(members, ref.solve_exact(a, b)):
            expected[m] = x
        assert chains._terminal_class_stationary(transition) == tuple(expected)


def bareiss_solve(a, b):
    """The solution of a x = b read from one fraction-free elimination."""
    n = len(a)
    reduced, pivots, scale, _ = _bareiss_reduce([row + [x] for row, x in zip(a, b)], n)
    assert len(pivots) == n
    return [Fraction(row[n], scale) for row in reduced]


@pytest.fixture
def primes_used(monkeypatch):
    """The primes the multi-modular solve eliminates modulo, in order."""
    used = []
    solve_mod_prime = exactcore._solve_mod_prime

    def spy(entries, n, p):
        used.append(p)
        return solve_mod_prime(entries, n, p)

    monkeypatch.setattr(exactcore, "_solve_mod_prime", spy)
    return used


class TestMultimodular:
    def test_word_primes(self):
        assert tuple(itertools.islice(_word_primes(), 32)) == WORD_PRIMES
        # every prime in [2^31 - 2^16, 2^31), strictly descending: a sieve
        low = 2**31 - 2**16
        sieve = np.ones(2**16, dtype=bool)
        for d in range(2, math.isqrt(2**31) + 1):
            sieve[-low % d :: d] = False
        expected = (low + np.flatnonzero(sieve))[::-1].tolist()
        drawn = list(itertools.takewhile(lambda p: p >= low, _word_primes()))
        assert drawn == expected
        assert drawn[0] < 2**31 and all(p > q for p, q in zip(drawn, drawn[1:]))

    def test_reconstruction(self):
        m = WORD_PRIMES[0] * WORD_PRIMES[1]
        for x in [Fraction(0), Fraction(-1), Fraction(5, 7), Fraction(-123456, 98765)]:
            u = x.numerator * pow(x.denominator, -1, m) % m
            assert _rational_reconstruction(u, m) == x
        # 2^31 / 3 needs about 62 bits of numerator and denominator together
        assert _rational_reconstruction(2**31 * pow(3, -1, m) % m, m) is None

    def test_determinant_divisible_by_first_prime(self, primes_used):
        p = WORD_PRIMES[0]
        a = [[Fraction(x) for x in row] for row in [[1, 2, 3], [4, 5, 6], [7, 8, p + 9]]]
        assert IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, p + 9]]).det() == -3 * p
        b = [Fraction(1), Fraction(-2, 3), Fraction(5)]
        # singular mod p: the solve skips p and the next primes certify
        expected = ref.solve_exact(a, b)
        assert _multimodular_solve(a, b) == expected
        assert primes_used[0] == p and len(primes_used) > 1
        assert chains._solve_exact(a, b) == expected

    def test_denominator_divisible_by_a_listed_prime(self, primes_used):
        p = WORD_PRIMES[0]
        a = [[Fraction(1, p), Fraction(1)], [Fraction(1), Fraction(2, 3)]]
        b = [Fraction(1), Fraction(-1, 5)]
        expected = ref.solve_exact(a, b)
        assert _multimodular_solve(a, b) == expected
        assert p not in primes_used and primes_used
        assert chains._solve_exact(a, b) == expected

    def test_crt_for_numerators_beyond_one_prime(self, primes_used):
        p = WORD_PRIMES[0]
        x = [Fraction(p + 5), Fraction(-(2**40 + 1), 7), Fraction(-3, 4)]
        # one prime alone reads p + 5 as 5: only the exact check rejects it
        assert _rational_reconstruction(x[0].numerator % p, p) == 5
        a = [[Fraction(v) for v in row] for row in [[2, 1, 0], [1, 3, 1], [0, 1, 4]]]
        b = [sum(r * v for r, v in zip(row, x)) for row in a]
        assert _multimodular_solve(a, b) == x
        assert len(primes_used) >= 3
        assert chains._solve_exact(a, b) == x == ref.solve_exact(a, b)

    def test_one_prime_for_small_answers(self, primes_used):
        a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        b = [Fraction(1), Fraction(-1, 3)]
        assert _multimodular_solve(a, b) == [Fraction(1, 3), Fraction(2, 3)]
        assert primes_used == [WORD_PRIMES[0]]

    def test_numerators_beyond_the_old_prime_table(self, primes_used):
        # about 1100 bits of numerator: more than the 32 primes of the old
        # table certify, so the solve draws further primes
        x = [Fraction(2**1100 + 1), Fraction(-(3**700), 7), Fraction(5, 11)]
        a = [[Fraction(v) for v in row] for row in [[2, 1, 0], [1, 3, 1], [0, 1, 4]]]
        b = [sum(r * v for r, v in zip(row, x)) for row in a]
        assert _multimodular_solve(a, b) == x
        assert len(primes_used) > len(WORD_PRIMES)
        assert primes_used[: len(WORD_PRIMES)] == list(WORD_PRIMES)

    def test_singular_verdict_after_several_skipped_primes(self, primes_used):
        # H^2 is about 2^162: one skipped prime (about 2^31) cannot exclude
        # a nonzero det A, three can
        a = [[Fraction(2**40), Fraction(1)], [Fraction(2**41), Fraction(2)]]
        assert _multimodular_solve(a, [Fraction(1), Fraction(3)]) is None
        assert primes_used == list(WORD_PRIMES[:3])

    def test_uncertified_past_the_hadamard_bound_raises(self, monkeypatch):
        monkeypatch.setattr(exactcore, "_rational_reconstruction", lambda u, m: None)
        a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        with pytest.raises(ExactCheckError, match="Hadamard bound"):
            _multimodular_solve(a, [Fraction(1), Fraction(-1, 3)])

    def test_running_out_of_primes_raises(self, monkeypatch):
        monkeypatch.setattr(exactcore, "_word_primes", lambda: iter(WORD_PRIMES[:1]))
        x = [Fraction(2**100 + 1), Fraction(1, 3)]
        a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        b = [x[0] + x[1], x[0] - x[1]]
        with pytest.raises(ExactCheckError, match="ran out"):
            _multimodular_solve(a, b)

    @pytest.mark.parametrize(
        "a",
        [
            [[1, 2], [2, 4]],
            [[Fraction(1, 3), Fraction(2, 5), 1], [0, 0, 0], [1, 1, 1]],
            [[Fraction(1, 2), Fraction(1, 2), 0], [0, 1, -1], [1, 2, -1]],
        ],
    )
    def test_singular_system_same_error(self, a):
        a = [[Fraction(x) for x in row] for row in a]
        b = [Fraction(1)] * len(a)
        assert _multimodular_solve(a, b) is None
        new = outcome(chains._solve_exact, a, b)
        assert new[0] == "raised"
        assert new == outcome(ref.solve_exact, a, b)

    # seeded alphas and probabilities; D_2 shares a factor with q, so the
    # stationary vector is not uniform and its denominators need several primes
    @pytest.mark.parametrize("p1, p2", [(11, 13), (17, 19)])
    def test_stationary_support_matches_bareiss(self, p1, p2, primes_used):
        rng = np.random.default_rng(p1 * p2)
        alphas = [Fraction(int(rng.integers(1, p1)), p1), Fraction(int(rng.integers(1, p2)), p2)]
        weights = [int(w) for w in rng.integers(1, 9, 2)]
        probabilities = [Fraction(w, sum(weights)) for w in weights]
        fs = chains.build_finite_stationary(
            [2, p2], [Scalar.rational(x) for x in alphas], probabilities
        )
        assert fs.q == p1 * p2
        members = chains._closed_class(fs.transition)
        a, b = stationary_system([[fs.transition[u].get(v, Fraction(0)) for v in members] for u in members])
        expected = [Fraction(0)] * fs.q
        for m, x in zip(members, bareiss_solve(a, b)):
            expected[m] = x
        assert fs.stationary == tuple(expected)
        assert len(set(fs.stationary)) > 2
        assert len(primes_used) > 1


@st.composite
def eta_inputs(draw):
    """(D, translations, probabilities) with rational differences of common
    denominator at most 200; t_1 may carry sqrt2, and repeated or colliding
    differences are frequent."""
    d_value = draw(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5, 6]))
    q = draw(st.integers(1, 200))
    k = draw(st.integers(2, 5))
    numerators = draw(st.lists(st.integers(0, q - 1), min_size=k - 1, max_size=k - 1))
    basis = exactcore.IrrationalBasis(("sqrt2",))
    t1 = Scalar(basis, (draw(fractions), Fraction(draw(st.integers(0, 1)))))
    translations = [t1] + [t1 + Fraction(n, q) for n in numerators]
    weights = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    return d_value, translations, [Fraction(w, sum(weights)) for w in weights]


class TestEtaChain:
    @settings(max_examples=120, deadline=None)
    @given(eta_inputs())
    # D = 2 collapses the difference 1/2 to the one state 0
    @example((2, [Scalar.rational(0), Scalar.rational(Fraction(1, 2))], [Fraction(1, 2)] * 2))
    def test_matches_the_search_over_fractions(self, inputs):
        d_value, translations, probabilities = inputs
        deltas = [(t - translations[0]).rational_part for t in translations]
        states, transition = ref.eta_chain(d_value, deltas, probabilities)
        # irreducible: from a state s reached by a word w, repeating w and then
        # letter 1 (delta_1 = 0) leads back to 0
        assert ref.strongly_connected([[j for j, x in enumerate(row) if x] for row in transition])
        eta = chains.build_eta_chain(d_value, translations, probabilities)
        assert eta.states == tuple(states)
        n = len(states)
        # sparse rows: keys ascending within the states, values > 0, sum exactly 1
        for row in eta.transition:
            assert list(row) == sorted(row) and set(row) <= set(range(n))
            assert all(x > 0 for x in row.values()) and sum(row.values()) == 1
        assert [[row.get(j, 0) for j in range(n)] for row in eta.transition] == transition
        # so v T = v with sum 1 has one solution
        assert sum(eta.stationary) == 1
        assert [sum(eta.stationary[j] * transition[j][i] for j in range(n)) for i in range(n)] == list(
            eta.stationary
        )
        assert eta.q == math.lcm(*(d.denominator for d in deltas))


def carry_chain(d_value: int, q: int, rng) -> chains.EtaChain:
    """A carry chain of modulus exactly q: the differences are 1/q and one
    or two drawn multiples of 1/q, with drawn weights."""
    numerators = [1] + [int(x) for x in rng.integers(0, q, size=int(rng.integers(1, 3)))]
    translations = [Scalar.rational(0)] + [Scalar.rational(Fraction(n, q)) for n in numerators]
    weights = [int(w) for w in rng.integers(1, 5, size=len(translations))]
    eta = chains.build_eta_chain(d_value, translations, [Fraction(w, sum(weights)) for w in weights])
    assert eta.q == q
    return eta


class TestCarryWalk:
    """The closed-form walk against the table of successors, letter by
    letter: moduli that are powers of two (only the part nilpotent under D
    for even D), that share some primes with D, that share none, and the
    largest one allowed.  The walk reads no stationary vector, so the
    chains here skip the solve."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        monkeypatch.setattr(chains, "_stationary_irreducible", lambda rows: (Fraction(0),) * len(rows))

    # D beyond int64 / q^2 must be reduced before any int64 product
    @pytest.mark.parametrize("d_value", [2, 3, -3, 4, 6, 10, 12, -(2**62 + 5)])
    @pytest.mark.parametrize("q", [2, 8, 64, 360, 2048, 1, 7, 45, 143])
    def test_matches_the_table_walk(self, d_value, q):
        rng = np.random.default_rng(abs(d_value) % 4099 * 4096 + q)
        eta = carry_chain(d_value, q, rng) if q > 1 else chains.build_eta_chain(
            d_value, [Scalar.rational(0), Scalar.rational(1)]
        )
        k = len(eta.deltas_tilde)
        # 0 and 1 letters, a part of one block, and several blocks
        for n in (0, 1, 2, 37, 3 * chains._CARRY_BLOCK + 5):
            letters = rng.integers(1, k + 1, size=n)
            path = eta.walk(letters)
            assert path.dtype == np.uint16
            assert np.array_equal(path, ref.eta_walk(eta, letters))

    def test_random_chains(self):
        rng = np.random.default_rng(270)
        for _ in range(60):
            d_value = int(rng.choice([-6, -5, -3, -2, 2, 3, 4, 5, 6, 10, 12]))
            eta = carry_chain(d_value, int(rng.integers(2, 400)), rng)
            letters = rng.integers(1, len(eta.deltas_tilde) + 1, size=int(rng.integers(0, 3000)))
            assert np.array_equal(eta.walk(letters), ref.eta_walk(eta, letters))

    @pytest.mark.parametrize("bad", [0, 5, 1.5])
    def test_letters_refused_like_the_table_walk(self, bad):
        eta = carry_chain(3, 10, np.random.default_rng(0))
        letters = np.array([1, 2, bad, 1])
        with pytest.raises(ValueError, match=r"^letters must index the map family \(1-based\)$"):
            eta.walk(letters)
        with pytest.raises(ValueError, match=r"^letters must index the map family \(1-based\)$"):
            ref.eta_walk(eta, letters)


def finite_stationary_cases():
    """Finite stationary supports with their kept x0 and alphas, and copies
    whose x0 or alpha was moved: seeded rational walks, and an irrational
    alpha whose betas are rational."""
    s2 = exactcore.IrrationalBasis(("sqrt2",))
    sqrt2 = Scalar(s2, (Fraction(0), Fraction(1)))
    cases = [chains.build_finite_stationary([2, 3], [sqrt2, sqrt2 * 2])]
    cases.append(chains.build_finite_stationary([2, 3], [sqrt2, sqrt2 * 2 + Fraction(1, 5)]))
    rng = np.random.default_rng(23)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        ds = [int(rng.choice([-3, -2, 2, 3, 4, 5, 6])) for _ in range(k)]
        alphas = [
            Scalar.rational(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))))
            for _ in range(k)
        ]
        cases.append(chains.build_finite_stationary(ds, alphas))
    moved = []
    for fs in cases:
        moved.append(dataclasses.replace(fs, x0=fs.x0 + Fraction(1, 7 * fs.q)))
        moved.append(dataclasses.replace(fs, x0=fs.x0 + Fraction(1, 2)))
        moved.append(dataclasses.replace(fs, x0=fs.x0 + 1))
        moved.append(dataclasses.replace(fs, alphas=(fs.alphas[0] + Fraction(1, 7),) + fs.alphas[1:]))
        moved.append(dataclasses.replace(fs, alphas=fs.alphas[:-1] + (fs.alphas[-1] + Fraction(1, fs.q),)))
        if not fs.x0.is_rational():
            moved.append(dataclasses.replace(fs, alphas=(fs.alphas[0] + sqrt2,) + fs.alphas[1:]))
    return cases + moved


class TestFiniteStationaryChecks:
    def test_invariance_matches_the_torus_point_check(self):
        verdicts = []
        for fs in finite_stationary_cases():
            verdicts.append(fs.support_is_invariant())
            assert verdicts[-1] == ref.support_is_invariant(fs)
        # both verdicts occur
        assert True in verdicts and False in verdicts

    def test_pushforward_matches_the_fraction_check(self):
        verdicts = []
        for fs in finite_stationary_cases():
            for stationary in (fs.stationary, fs.stationary[1:] + fs.stationary[:1]):
                moved = dataclasses.replace(fs, stationary=stationary)
                verdicts.append(moved.pushforward_is_stationary())
                assert verdicts[-1] == ref.pushforward_is_stationary(moved)
        assert True in verdicts and False in verdicts
