import itertools
from fractions import Fraction

import pytest

from toruswalk.exactcore import ExactCheckError, IntMatrix, IrrationalBasis, Scalar, TorusPoint
from toruswalk.groupcond import DensityVerdict, condition_ifs, condition_walk, is_dense
from conftest import random_point, random_rational

B = IrrationalBasis(("sqrt2",))


def rational_point(*values) -> TorusPoint:
    return TorusPoint([Scalar.rational(Fraction(v), B) for v in values])


def sqrt2_point(*coeffs) -> TorusPoint:
    return TorusPoint([Scalar(B, (Fraction(0), Fraction(c))) for c in coeffs])


def brute_force_witness(points, k_inf):
    """Search integer annihilators directly, smallest norm (and positive
    direction) first; None when none exists."""
    d = points[0].dimension
    candidates = sorted(
        itertools.product(range(-k_inf, k_inf + 1), repeat=d),
        key=lambda k: (max(abs(v) for v in k), tuple(-v for v in k)),
    )
    for k in candidates:
        if not any(k):
            continue
        ok = True
        for p in points:
            acc = Scalar.rational(0, p.basis)
            for ki, s in zip(k, p.coords):
                acc = acc + s * ki
            if not acc.is_rational() or acc.rational_part.denominator != 1:
                ok = False
                break
        if ok:
            return k
    return None


class TestIsDense:
    def test_half_not_dense_with_witness_two(self):
        verdict = is_dense([rational_point(Fraction(1, 2))])
        assert not verdict.dense
        assert verdict.witness_pairs_integral()
        assert brute_force_witness(verdict.tested, 4) == (2,)

    def test_witness_guard_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(DensityVerdict, "witness_pairs_integral", lambda self: False)
        with pytest.raises(ExactCheckError, match="witness"):
            is_dense([rational_point(Fraction(1, 2))])

    def test_sqrt2_dense(self):
        # 1-dim: a single irrational point generates a dense subgroup
        assert is_dense([sqrt2_point(1)]).dense

    def test_mixed_2d_not_dense(self):
        pts = [sqrt2_point(1, 0), rational_point(0, Fraction(1, 2))]
        verdict = is_dense(pts)
        assert not verdict.dense
        assert verdict.witness_pairs_integral()
        assert brute_force_witness(pts, 2) == (0, 2)

    def test_two_independent_irrationals_dense_2d(self):
        pts = [sqrt2_point(1, 0), sqrt2_point(0, 1)]
        assert is_dense(pts).dense

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_dense([])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_dense([rational_point(0), rational_point(0, 0)])

    def test_rational_sets_never_dense(self, rng):
        # duality soundness: common denominator q forces a proper subgroup
        for _ in range(100):
            d = int(rng.integers(1, 3))
            q = int(rng.integers(1, 13))
            pts = [
                TorusPoint(
                    [
                        Scalar.rational(Fraction(int(rng.integers(0, q)), q), B)
                        for _ in range(d)
                    ]
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            verdict = is_dense(pts)
            assert not verdict.dense
            assert verdict.witness_pairs_integral()
            assert brute_force_witness(pts, q) is not None


class TestConditionWalk:
    def test_irrational_translation_dense(self):
        d2 = IntMatrix.from_rows([[2]])
        verdict = condition_walk([d2, d2], [rational_point(0), sqrt2_point(1)])
        assert verdict.dense

    def test_zero_translations_not_dense(self):
        verdict = condition_walk(
            [IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])],
            [rational_point(0), rational_point(0)],
        )
        assert not verdict.dense

    def test_identical_maps_not_dense(self):
        d2 = IntMatrix.from_rows([[2]])
        alpha = sqrt2_point(1)
        verdict = condition_walk([d2, d2], [alpha, alpha])
        assert not verdict.dense

    def test_difference_set_contains_zero_and_negations(self, rng, sqrt2_basis):
        mats = [IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])]
        alphas = [random_point(rng, sqrt2_basis, 1) for _ in range(2)]
        verdict = condition_walk(mats, alphas)
        zero = rational_point(0)
        tested = set(verdict.tested)
        assert zero in tested
        for p in tested:
            assert TorusPoint([-c for c in p.coords]) in tested

    def test_permutation_invariance(self, rng, sqrt2_basis):
        mats = [IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])]
        alphas = [random_point(rng, sqrt2_basis, 1) for _ in range(2)]
        v1 = condition_walk(mats, alphas)
        v2 = condition_walk(mats[::-1], alphas[::-1])
        assert v1.dense == v2.dense

    def test_non_expanding_rejected(self):
        with pytest.raises(ValueError):
            condition_walk(
                [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[2]])],
                [rational_point(0), rational_point(0)],
            )

    def test_2d_single_irrational_direction_not_dense(self):
        # translations differ along one axis only: a subtorus absorbs the set
        two_i = IntMatrix.from_rows([[2, 0], [0, 2]])
        verdict = condition_walk(
            [two_i, two_i], [rational_point(0, 0), sqrt2_point(1, 0)]
        )
        assert not verdict.dense
        assert verdict.witness_pairs_integral()
        assert verdict.witness[0] == 0  # annihilator ignores the sqrt2 axis

    def test_2d_independent_directions_dense(self):
        basis2 = IrrationalBasis(("sqrt2", "sqrt3"))

        def pt(c2_x, c3_y):
            x = Scalar(basis2, (Fraction(0), Fraction(c2_x), Fraction(0)))
            y = Scalar(basis2, (Fraction(0), Fraction(0), Fraction(c3_y)))
            return TorusPoint([x, y])

        two_i = IntMatrix.from_rows([[2, 0], [0, 2]])
        verdict = condition_walk([two_i, two_i], [pt(0, 0), pt(1, 1)])
        assert verdict.dense


class TestConditionIFS:
    def test_dilated_cantor_dense(self):
        # sqrt2-dilated middle-thirds set: typical points are normal to base 3
        verdict = condition_ifs(
            IntMatrix.from_rows([[3]]),
            [1, 1],
            [rational_point(0), TorusPoint([Scalar(B, (Fraction(0), Fraction(2, 3)))])],
        )
        assert verdict.dense

    def test_classical_cantor_not_dense(self):
        # middle thirds: no point is normal to base 3
        verdict = condition_ifs(
            IntMatrix.from_rows([[3]]),
            [1, 1],
            [rational_point(0), rational_point(Fraction(2, 3))],
        )
        assert not verdict.dense
        assert verdict.witness_pairs_integral()

    def test_zero_translations_not_dense(self):
        verdict = condition_ifs(
            IntMatrix.from_rows([[2]]), [1, 2], [rational_point(0), rational_point(0)]
        )
        assert not verdict.dense

    def test_1d_uniform_exponent_consistency(self, rng, sqrt2_basis):
        # dense iff some t_i - t_j has a nonzero irrational coefficient
        for _ in range(50):
            k = int(rng.integers(2, 5))
            pts = [random_point(rng, sqrt2_basis, 1, irrational_prob=0.4) for _ in range(k)]
            verdict = condition_ifs(IntMatrix.from_rows([[3]]), [1] * k, pts)
            has_irrational_diff = any(
                (pts[i].coords[0] - pts[j].coords[0]).coeffs[1] != 0
                for i in range(k)
                for j in range(k)
            )
            assert verdict.dense == has_irrational_diff
