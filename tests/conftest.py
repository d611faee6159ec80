import math
from fractions import Fraction

import numpy as np
import pytest

from toruswalk.exactcore import (
    IntMatrix,
    IrrationalBasis,
    Scalar,
    TorusPoint,
    is_expanding,
)


@pytest.fixture
def sqrt2_basis():
    return IrrationalBasis(("sqrt2",))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_expanding_matrix(rng, dim, max_entry=5) -> IntMatrix:
    """Rejection-sample an expanding integer matrix with bounded entries."""
    while True:
        m = IntMatrix.from_rows(
            rng.integers(-max_entry, max_entry + 1, size=(dim, dim)).tolist()
        )
        if is_expanding(m):
            return m


def random_rational(rng, denom_max=6) -> Fraction:
    den = int(rng.integers(1, denom_max + 1))
    num = int(rng.integers(-3 * den, 3 * den + 1))
    return Fraction(num, den)


def random_scalar(rng, basis, denom_max=6, irrational_prob=0.5) -> Scalar:
    coeffs = [random_rational(rng, denom_max)]
    for _ in basis.symbols:
        if rng.random() < irrational_prob:
            coeffs.append(random_rational(rng, denom_max))
        else:
            coeffs.append(Fraction(0))
    return Scalar(basis, tuple(coeffs))


def random_point(rng, basis, dim, denom_max=6, irrational_prob=0.5) -> TorusPoint:
    return TorusPoint(
        [random_scalar(rng, basis, denom_max, irrational_prob) for _ in range(dim)]
    )
