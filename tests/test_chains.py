import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from toruswalk.chains import (
    EtaChain,
    RationalityError,
    ReducibleChainError,
    alpha_orbit_measure,
    build_eta_chain,
    build_finite_stationary,
    limit_law_fourier,
    stationary_distribution,
)
import reference_output
from toruswalk import chains, fractal
from toruswalk.fractal import walk_letter_stream
from toruswalk.exactcore import ExactCheckError, IrrationalBasis, Scalar, TorusPoint, frac

B = IrrationalBasis(("sqrt2",))
F = Fraction


def rational(q):
    return Scalar.rational(F(q), B)


def sqrt2(coeff=1, plus=0):
    return Scalar(B, (F(plus), F(coeff)))


class TestFiniteStationary:
    def test_worked_example(self):
        fs = build_finite_stationary([2, 2], [rational(0), rational(F(1, 2))])
        assert str(fs.x0) == "0"
        assert fs.q == 2
        assert fs.a_values == (F(0), F(1, 2))
        assert fs.transition == ({0: F(1, 2), 1: F(1, 2)}, {0: F(1, 2), 1: F(1, 2)})
        assert fs.stationary == (F(1, 2), F(1, 2))

    def test_single_map_fixed_point(self):
        fs = build_finite_stationary([2], [rational(0)])
        assert fs.a_values == (F(0),)
        assert fs.stationary == (F(1),)

    def test_irrational_beta_rejected(self):
        with pytest.raises(RationalityError):
            build_finite_stationary([2, 2], [rational(0), sqrt2()])

    def test_irrational_alpha1_still_works(self):
        # x0 absorbs the irrational part; the chain itself is rational
        alpha1 = sqrt2()
        alpha2 = sqrt2(coeff=2, plus=F(1, 3))  # beta_2 = a2 - (3-1)/(2-1) a1 = 1/3
        fs = build_finite_stationary([2, 3], [alpha1, alpha2])
        assert fs.betas == (F(0), F(1, 3))
        assert not fs.x0.is_rational()
        assert fs.pushforward_is_stationary()

    def test_invariance_random(self, rng):
        for _ in range(30):
            k = int(rng.integers(1, 4))
            ds = [int(rng.integers(2, 6)) for _ in range(k)]
            alpha1 = rational(F(int(rng.integers(-6, 7)), int(rng.integers(1, 7))))
            alphas = [alpha1]
            for j in range(1, k):
                beta = F(int(rng.integers(0, 12)), int(rng.integers(1, 13)))
                alphas.append(rational(beta) + alpha1 * F(ds[j] - 1, ds[0] - 1))
            fs = build_finite_stationary(ds, alphas)
            for i in range(k):
                for a in fs.a_values:
                    assert fs.map_state(i, a) in fs.a_values
            assert fs.pushforward_is_stationary()

    def test_transition_and_vector_match_the_scanned_route(self, rng):
        # the rows' targets collected while filling give the dense scan's result
        for _ in range(40):
            k = int(rng.integers(1, 4))
            ds = [int(rng.choice([-3, -2, 2, 3, 5])) for _ in range(k)]
            alphas = [rational(F(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))) for _ in range(k)]
            weights = [int(w) for w in rng.integers(1, 5, size=k)]
            probs = [F(w, sum(weights)) for w in weights]
            fs = build_finite_stationary(ds, alphas, probs)
            dense = [[F(0)] * fs.q for _ in range(fs.q)]
            for d, beta, p in zip(ds, fs.betas, probs):
                for i, a in enumerate(fs.a_values):
                    dense[i][fs.a_values.index(frac(d * a + beta))] += p
            # sparse rows: keys ascending within the states, values > 0, sum exactly 1
            for row in fs.transition:
                assert list(row) == sorted(row) and set(row) <= set(range(fs.q))
                assert all(x > 0 for x in row.values()) and sum(row.values()) == 1
            assert [[row.get(j, 0) for j in range(fs.q)] for row in fs.transition] == dense
            scanned = [{j: x for j, x in enumerate(row) if x} for row in dense]
            assert fs.stationary == chains._terminal_class_stationary(scanned)

    def _example(self):
        return build_finite_stationary([2, 3], [rational(F(1, 11)), rational(F(2, 13))])

    def test_shifted_support_not_invariant(self):
        fs = self._example()
        assert fs.support_is_invariant()
        moved = dataclasses.replace(fs, x0=fs.x0 + F(1, 7 * fs.q))
        assert not moved.support_is_invariant()

    def test_support_checked_against_the_kept_alphas(self):
        # the check reads the maps the support was built from, so moving one
        # alpha off the support must fail it
        fs = self._example()
        assert fs.alphas == (rational(F(1, 11)), rational(F(2, 13)))
        shifted = (fs.alphas[0] + F(1, 7), fs.alphas[1])
        assert not dataclasses.replace(fs, alphas=shifted).support_is_invariant()

    def test_perturbed_vector_not_stationary(self):
        fs = self._example()
        assert fs.stationary_is_exact()
        v = list(fs.stationary)
        v[0], v[1] = v[0] + F(1, 1000), v[1] - F(1, 1000)
        assert not dataclasses.replace(fs, stationary=tuple(v)).stationary_is_exact()

    def test_probability_count_must_match(self):
        with pytest.raises(ValueError, match="one probability per map"):
            build_finite_stationary([2, 3], [rational(F(1, 3)), rational(F(1, 5))], [F(1)])


class TestEtaChain:
    def test_modulus_over_the_bound_refused(self):
        q = chains.MAX_STATES + 1
        with pytest.raises(chains.ChainSizeError, match=f"q = {q} exceeds the limit of {chains.MAX_STATES}"):
            build_finite_stationary([2, 3], [rational(0), rational(F(1, q))])
        with pytest.raises(chains.ChainSizeError, match=f"q = {q} exceeds"):
            build_eta_chain(3, [rational(0), rational(F(1, q))])
        assert build_eta_chain(3, [rational(0), rational(F(1, chains.MAX_STATES))]).q == chains.MAX_STATES

    def test_probability_count_must_match(self):
        with pytest.raises(ValueError, match="one probability per map"):
            build_eta_chain(3, [rational(0), rational(F(1, 2))], [F(1, 3), F(1, 3), F(1, 3)])

    def test_worked_example_biased(self):
        eta = build_eta_chain(3, [rational(0), rational(F(1, 2))], [F(1, 3), F(2, 3)])
        assert eta.states == (F(0), F(1, 2))
        assert eta.transition == ({0: F(1, 3), 1: F(2, 3)}, {0: F(2, 3), 1: F(1, 3)})
        assert eta.stationary == (F(1, 2), F(1, 2))

    def test_degenerate_collapse(self):
        # D=2, t=(0,1/2): delta-tilde = 2*(1/2) = 0 mod 1
        eta = build_eta_chain(2, [rational(0), rational(F(1, 2))])
        assert eta.states == (F(0),)
        assert eta.stationary == (F(1),)

    def test_irrational_differences_rejected(self):
        with pytest.raises(RationalityError):
            build_eta_chain(3, [rational(0), sqrt2()])

    def test_irrational_t1_with_rational_differences(self):
        eta = build_eta_chain(3, [sqrt2(), sqrt2(plus=F(1, 2))])
        assert eta.q == 2
        assert eta.states == (F(0), F(1, 2))

    def test_aperiodicity_witness_at_zero(self):
        # the chain can linger at 0 with positive probability, hence aperiodic
        eta = build_eta_chain(3, [rational(0), rational(F(1, 3))])
        zero_idx = eta.states.index(F(0))
        assert eta.transition[zero_idx].get(zero_idx, 0) > 0

    def test_empirical_frequencies(self):
        eta = build_eta_chain(3, [rational(0), rational(F(1, 2))])
        sim = eta.walk(walk_letter_stream(eta.probabilities, np.random.default_rng(42), 20000))
        freq = np.bincount(sim, minlength=2) / len(sim)
        for f, p in zip(freq, eta.stationary):
            assert abs(f - float(p)) < 0.02
        rows, worst = eta.state_frequencies(sim)
        assert rows == list(zip(eta.states, eta.stationary, freq.tolist()))
        assert worst == max(abs(f - float(p)) for f, p in zip(freq, eta.stationary)) < 0.02


class TestRationalCaseBlocks:
    """The rational case's points, computed a block of steps at a time,
    against the whole-array pass of reference_output, bit for bit."""

    @pytest.mark.parametrize(
        "d_value, ts",
        [
            (3, [rational(F(1, 5)), rational(F(7, 10))]),
            (3, [rational(F(1, 27)), rational(F(1, 2))]),  # preperiod [1/6], cycle [1/2]
            # c = 1/63: preperiod [1/21], a cycle of six sevenths
            (3, [rational(F(2, 189)), rational(F(2, 189) + F(1, 2))]),
            (2, [rational(F(1, 3)), rational(F(2, 3)), rational(0)]),
            (3, [sqrt2(), sqrt2(plus=F(1, 3))]),  # the alpha orbit from the engine
        ],
    )
    def test_points_match_the_whole_array_pass(self, d_value, ts):
        eta = build_eta_chain(d_value, ts)
        block = fractal._SCRATCH_BLOCK
        for n in (1, block - 1, block, 2 * block + 5):
            letters = walk_letter_stream(eta.probabilities, np.random.default_rng(n), n + 40)
            sample, eta_idx = chains._rational_case_points(eta, letters, n)
            assert eta_idx.dtype == np.uint16
            assert np.array_equal(eta_idx, eta.walk(letters[:n]))
            want = reference_output.rational_case_points(eta, letters, n)
            assert sample.points[:, 0].tobytes() == want.tobytes()


class TestStationaryDistribution:
    def test_two_cycle(self):
        t = [[F(0), F(1)], [F(1), F(0)]]
        assert stationary_distribution(t) == (F(1, 2), F(1, 2))

    def test_symmetric_biased(self):
        p1, p2 = F(1, 3), F(2, 3)
        t = [[p1, p2], [p2, p1]]
        assert stationary_distribution(t) == (F(1, 2), F(1, 2))

    def test_doubly_stochastic_uniform(self, rng):
        # circulant rows are doubly stochastic; uniform is stationary
        row = [F(1, 6), F(2, 6), F(3, 6)]
        t = [row, row[1:] + row[:1], row[2:] + row[:2]]
        assert stationary_distribution(t) == (F(1, 3),) * 3

    @pytest.mark.parametrize(
        "t, message",
        [
            ([[F(1, 2), F(1, 2)]], "must be square"),
            ([[F(3, 2), F(-1, 2)], [F(1, 2), F(1, 2)]], "nonnegative and sum to 1"),
            ([[F(1, 3), F(1, 3)], [F(1, 2), F(1, 2)]], "nonnegative and sum to 1"),
            ([], "is empty"),
        ],
    )
    def test_malformed_matrix_rejected(self, t, message):
        with pytest.raises(ValueError, match=message):
            stationary_distribution(t)

    def test_reducible_rejected(self):
        t = [[F(1), F(0)], [F(0), F(1)]]
        with pytest.raises(ReducibleChainError):
            stationary_distribution(t)

    def test_residual_guard_raises_typed_error(self, monkeypatch):
        # a solver returning a non-stationary vector must not pass unnoticed
        monkeypatch.setattr(chains, "_solve_exact", lambda a, b: [F(1), F(0)])
        t = [[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]]
        with pytest.raises(ExactCheckError, match="residual"):
            stationary_distribution(t)

    def test_nonnegativity_guard_raises_typed_error(self, monkeypatch):
        # -pi is stationary for T but not a probability vector; T is not
        # doubly stochastic, so the solve runs and the guard is reached
        monkeypatch.setattr(chains, "_solve_exact", lambda a, b: [F(-3, 7), F(-4, 7)])
        t = [[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]]
        with pytest.raises(ExactCheckError, match="negative"):
            stationary_distribution(t)

    def test_doubly_stochastic_chain_is_not_solved(self, monkeypatch):
        def solve(a, b):
            raise AssertionError("a doubly stochastic chain reached the solve")

        monkeypatch.setattr(chains, "_solve_exact", solve)
        row = [F(1, 6), F(2, 6), F(3, 6)]
        t = [row, row[1:] + row[:1], row[2:] + row[:2]]
        assert stationary_distribution(t) == (F(1, 3),) * 3
        # the bijective walk of the stationary-support benchmark, q = 143
        fs = build_finite_stationary([2, 3], [rational(F(1, 11)), rational(F(2, 13))])
        assert fs.stationary == (F(1, 143),) * 143
        assert fs.stationary_is_exact() and fs.pushforward_is_stationary()

    def test_uniform_vector_passes_the_same_checks(self, monkeypatch):
        # a residual check that sees a wrong vector refuses the uniform one too
        monkeypatch.setattr(chains, "_residual_state", lambda rows, v: 0)
        with pytest.raises(ExactCheckError, match="residual nonzero at state 0"):
            stationary_distribution([[F(0), F(1)], [F(1), F(0)]])

    # closed classes of 13 and 15 states inside the q = 108 and q = 40
    # supports, whose chains are not doubly stochastic: one solve each, and
    # the vectors the solve gave before the uniform shortcut
    @pytest.mark.parametrize(
        "d_values, alphas, vector",
        [
            (
                [4, 6],
                [F(1, 9), F(1, 12)],
                {4: "1/73", 13: "1/28", 16: "40/511", 28: "2/73", 40: "10/511", 49: "1/14",
                 52: "78/511", 64: "20/511", 67: "1/4", 76: "39/1022", 85: "1/7", 88: "4/73",
                 100: "39/511"},
            ),
            (
                [2, 5],
                [F(1, 20), F(3, 8)],
                {2: "1/17", 4: "1/20", 7: "2/17", 8: "1/20", 12: "8/255", 14: "1/10",
                 16: "1/15", 17: "16/255", 22: "7/170", 24: "1/20", 27: "7/85", 28: "1/12",
                 32: "7/102", 34: "1/15", 37: "6/85"},
            ),
        ],
    )
    def test_other_chains_solve_once(self, monkeypatch, d_values, alphas, vector):
        calls = []
        solve = chains._solve_exact

        def counting(a, b):
            calls.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(chains, "_solve_exact", counting)
        fs = build_finite_stationary(d_values, [rational(x) for x in alphas])
        assert calls == [len(vector)]
        assert {i: str(x) for i, x in enumerate(fs.stationary) if x} == vector

    def test_exact_vs_power_iteration(self):
        t = [
            [F(1, 2), F(1, 4), F(1, 4)],
            [F(1, 3), F(1, 3), F(1, 3)],
            [F(0), F(3, 4), F(1, 4)],
        ]
        exact = stationary_distribution(t)
        power = np.linalg.matrix_power(np.array(t, dtype=float), 500)
        approx = np.full(3, 1 / 3) @ power
        assert np.allclose([float(x) for x in exact], approx, atol=1e-12)
        assert sum(exact) == 1


class TestAlphaOrbit:
    def test_period_four_example(self):
        nu = alpha_orbit_measure(3, F(1, 5))
        assert set(nu.atoms) == {F(0), F(2, 5), F(3, 5), F(4, 5)}
        assert all(w == F(1, 4) for w in nu.weights)

    def test_zero_translation_is_point_mass(self):
        nu = alpha_orbit_measure(3, F(0))
        assert nu.atoms == (F(0),) and nu.weights == (F(1),)

    def test_preperiodic_case(self):
        # c = 2*(1/4)/(2-1)? D=2, t1=1/6: c = 2/6 = 1/3; orbit 2/3, 1/3, 2/3:
        nu = alpha_orbit_measure(2, F(1, 6))
        assert set(nu.atoms) == {F(0), F(1, 3)}


class TestOrbitDecomposition:
    def test_alpha_closed_form(self, rng):
        # sum_{j=1..m} D^j t1 = D^m (D/(D-1)) t1 - (D/(D-1)) t1, exactly
        for _ in range(40):
            d = int(rng.integers(2, 7)) * (1 if rng.random() < 0.8 else -1)
            t1 = F(int(rng.integers(-20, 21)), int(rng.integers(1, 13)))
            m = int(rng.integers(1, 12))
            direct = sum((F(d) ** j * t1 for j in range(1, m + 1)), F(0))
            c = F(d, d - 1) * t1
            assert direct == F(d) ** m * c - c

    def test_walk_sum_splits_into_alpha_plus_eta(self, rng):
        # h_{i_m} o ... o h_{i_1}(0) = alpha_m + eta_m exactly (d = 1, r = 1),
        # tying the chain bookkeeping to the walk composition machinery
        from toruswalk.fractal import AffineIFS, h_word_at_zero, sample_word

        for _ in range(25):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(2, 4))
            t1 = rational(F(int(rng.integers(-6, 7)), int(rng.integers(1, 7))))
            ts = [t1]
            for _ in range(k - 1):
                ts.append(t1 + F(int(rng.integers(0, 12)), int(rng.integers(1, 13))))
            ifs = AffineIFS.create(d, [1] * k, [[t] for t in ts])
            eta = build_eta_chain(d, ts)
            m = int(rng.integers(1, 10))
            w = sample_word(ifs, rng, m)
            walk_value = h_word_at_zero(ifs, w)

            alpha_m = sum(
                ((F(d) ** j) * t1.rational_part for j in range(1, m + 1)), F(0)
            )
            eta_m = F(0)
            for a in w.letters:
                eta_m = _frac_local(d * eta_m + eta.deltas_tilde[a - 1])
            decomposed = TorusPoint([rational(alpha_m + eta_m)])
            assert walk_value == decomposed


def _frac_local(q):
    return q - (q.numerator // q.denominator)


class TestLimitLaw:
    def test_zero_t1_reduces_to_p_times_mu(self):
        t = [F(0), F(1, 2)]
        eta = build_eta_chain(3, [rational(0), rational(F(1, 2))])
        law = limit_law_fourier(eta)
        # nu = delta_0 so coefficients are p-hat times mu-hat
        p_hat = eta.stationary_measure().coefficients()
        from toruswalk.spectral import SelfSimilarSpec, convolve

        mu_hat = SelfSimilarSpec.create(3, t, [F(1, 2), F(1, 2)]).coefficients()
        expected = convolve(p_hat, mu_hat)
        for n in range(-6, 7):
            assert law(n).value == pytest.approx(expected(n).value, abs=1e-9)

    def test_coefficients_bounded_by_one(self):
        eta = build_eta_chain(3, [rational(F(1, 5)), rational(F(7, 10))])
        law = limit_law_fourier(eta)
        for n in range(-10, 11):
            assert abs(law(n).value) <= 1 + 1e-9

    def test_biased_three_maps_convolve_the_chain_parts(self):
        # nu * p * mu_K with every part built from the chain's own maps and
        # weights: a law that read other weights or atoms moves some value
        from toruswalk.spectral import SelfSimilarSpec, convolve

        t = [F(1, 5), F(7, 10), F(1, 4)]
        probs = [F(1, 2), F(1, 3), F(1, 6)]
        eta = build_eta_chain(3, [rational(x) for x in t], probs)
        assert eta.translations == tuple(rational(x) for x in t)
        nu_hat = alpha_orbit_measure(3, t[0]).coefficients()
        p_hat = eta.stationary_measure().coefficients()
        mu_hat = SelfSimilarSpec.create(3, t, probs).coefficients()
        expected = convolve(convolve(nu_hat, p_hat), mu_hat)
        law = limit_law_fourier(eta)
        for n in range(-20, 21):
            assert law(n) == expected(n)

    def test_irrational_t1_rejected(self):
        eta = build_eta_chain(3, [sqrt2(), sqrt2(plus=F(1, 2))])
        with pytest.raises(RationalityError):
            limit_law_fourier(eta)
