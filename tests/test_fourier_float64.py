"""Differential tests: the float64 character evaluator in `spectral` against
the earlier mpmath and libm paths (tests/reference_fourier.py) and against
200-bit products of the same factors."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_fourier as ref
from toruswalk import spectral
from toruswalk.spectral import (
    DiscreteMeasure,
    FourierValue,
    SelfSimilarSpec,
    fourier_discrete,
    fourier_selfsimilar,
    truncation_depth,
)

F = Fraction
ULP_52 = 2.0 ** -52

bases = st.sampled_from([b for b in range(-7, 8) if abs(b) >= 2])
atoms = st.builds(F, st.integers(-120, 120), st.integers(1, 60))
# large frequencies exercise deep products, small ones hit the exact zeros
freqs = st.one_of(st.integers(-10 ** 12, 10 ** 12), st.integers(-64, 64))
tols = st.floats(4.0, 14.0).map(lambda e: 10.0 ** -e)


@st.composite
def weight_lists(draw, k: int) -> list[Fraction]:
    if k == 2 and draw(st.booleans()):
        return [F(1, 2), F(1, 2)]
    raw = draw(st.lists(st.integers(1, 20), min_size=k, max_size=k))
    return [F(w, sum(raw)) for w in raw]


@st.composite
def self_similar_specs(draw) -> SelfSimilarSpec:
    k = draw(st.integers(1, 5))
    points = draw(st.lists(atoms, min_size=k, max_size=k))
    return SelfSimilarSpec.create(draw(bases), points, draw(weight_lists(k)))


@st.composite
def discrete_measures(draw) -> DiscreteMeasure:
    k = draw(st.integers(1, 5))
    points = draw(st.lists(atoms, min_size=k, max_size=k))
    return DiscreteMeasure(points, draw(weight_lists(k)))


class TestAgainstMpmathPath:
    @settings(max_examples=150, deadline=None)
    @given(self_similar_specs(), freqs, tols)
    def test_selfsimilar(self, spec, n, tol):
        new = fourier_selfsimilar(spec, n, tol)
        old = ref.fourier_selfsimilar(spec, n, tol)
        assert new.exact_zero == old.exact_zero
        assert new.error <= old.error
        assert abs(new.value - old.value) <= new.error + old.error

    @settings(max_examples=150, deadline=None)
    @given(discrete_measures(), freqs)
    def test_discrete(self, measure, n):
        new = fourier_discrete(measure, n)
        old = ref.fourier_discrete(measure, n)
        assert new.exact_zero == old.exact_zero
        assert new.error <= old.error
        assert abs(new.value - old.value) <= new.error + old.error


def _bits(value) -> tuple:
    """A FourierValue as exact bit patterns (float.hex keeps the sign of 0)."""
    return value.value.real.hex(), value.value.imag.hex(), value.error.hex(), value.exact_zero


def _agrees(new: FourierValue, old: FourierValue) -> bool:
    """The same exact-zero flag and error bits, values within both errors."""
    return (
        new.exact_zero == old.exact_zero
        and new.error.hex() == old.error.hex()
        and abs(new.value - old.value) <= new.error + old.error
    )


@st.composite
def onepass_specs(draw) -> SelfSimilarSpec:
    """One to four unsorted atoms, all zero now and then, over bases +-2..+-7."""
    k = draw(st.integers(1, 4))
    points = [F(0)] * k if draw(st.integers(0, 9)) == 0 else draw(st.lists(atoms, min_size=k, max_size=k))
    return SelfSimilarSpec.create(draw(bases), points, draw(weight_lists(k)))


def _data(modulus: int, numerators, weights) -> spectral._MeasureData:
    """Measure data for atoms A_i / modulus that need not be in lowest terms."""
    return spectral._MeasureData(modulus, tuple(numerators), tuple(weights), 0.0, False, None, [])


class TestOnePassAgainstPerCall:
    """The batched Taylor evaluator against the libm evaluator it replaced
    (tests/reference_fourier.py): the same exact-zero flags and error bits,
    and values within the sum of the two stated errors."""

    @settings(max_examples=400, deadline=None)
    @given(onepass_specs(), freqs, tols)
    def test_selfsimilar_against_libm(self, spec, n, tol):
        assert _agrees(fourier_selfsimilar(spec, n, tol), ref.libm_fourier_selfsimilar(spec, n, tol))

    @settings(max_examples=300, deadline=None)
    @given(discrete_measures(), freqs)
    def test_discrete_against_libm(self, measure, n):
        assert _agrees(fourier_discrete(measure, n), ref.libm_fourier_discrete(measure, n))

    @pytest.mark.parametrize("base", [4, -4, 6, -3])
    def test_unsorted_equal_weight_pair(self, base):
        # gap 1/2 in either atom order: every odd n is an exact zero at scale 0
        for points in (["1/2", "0"], ["0", "1/2"]):
            spec = SelfSimilarSpec.create(base, points)
            for n in [*range(-41, 42, 2), 10 ** 12 + 1, -(10 ** 12) - 3]:
                got = fourier_selfsimilar(spec, n)
                assert got.exact_zero
                assert _bits(got) == _bits(ref.libm_fourier_selfsimilar(spec, n))

    def test_zero_exactly_at_a_deep_scale(self):
        # gap 1/6, base -4: |n| gap 2 / 4^i is 7 4^(j-i), odd only at scale
        # i = j, for n = 3 4^j 7
        spec = SelfSimilarSpec.create(-4, ["1/6", "0"])
        for j in range(6):
            n = 3 * 4 ** j * 7
            assert fourier_selfsimilar(spec, n).exact_zero
            for m in (n, -n, 2 * n, n + 3):
                assert _agrees(fourier_selfsimilar(spec, m), ref.libm_fourier_selfsimilar(spec, m))

    def test_zero_max_delta(self):
        spec = SelfSimilarSpec.create(-3, ["0", "0", "0"], ["1/2", "1/4", "1/4"])
        for n in (1, -7, 10 ** 12):
            assert _bits(fourier_selfsimilar(spec, n)) == _bits(FourierValue(1.0 + 0j, 0.0))

    def test_one_scale_is_one_average(self):
        numerators, weights = [3, -5, 11], [0.25, 0.5, 0.25]
        stated = 2 * (len(numerators) + 2) * ULP_52
        ns = [1, -2, 10 ** 12 + 7]
        re, im = spectral._character_products(_data(17, numerators, weights), 1, ns, [0] * len(ns))
        for n, value in zip(ns, map(complex, re, im)):
            assert abs(value - ref.libm_character_average(numerators, weights, n, 17)) <= stated

    def test_measure_data_is_derived_once(self):
        spec = SelfSimilarSpec.create(4, ["1/4", "0"])
        assert spec._data is spec._data
        assert spec._data.gap == (1, 4) and spec._data.modulus == 4
        measure = DiscreteMeasure.uniform([F(3, 4), F(1, 4)])
        assert measure._data.gap == (1, 2) and measure._data.numerators == (1, 3)


class TestBatches:
    """A batch gives each frequency the bits it gets as a batch of one,
    whatever else the batch holds and however it is cut into chunks."""

    @settings(max_examples=150, deadline=None)
    @given(onepass_specs(), st.lists(freqs, min_size=1, max_size=12), tols)
    def test_selfsimilar_batch_is_batches_of_one(self, spec, ns, tol):
        table = spec.coefficients(tol).table(ns)
        assert [_bits(v) for v in table] == [_bits(fourier_selfsimilar(spec, n, tol)) for n in ns]

    @settings(max_examples=100, deadline=None)
    @given(discrete_measures(), st.lists(freqs, min_size=1, max_size=12))
    def test_discrete_batch_is_batches_of_one(self, measure, ns):
        table = measure.coefficients().table(ns)
        assert [_bits(v) for v in table] == [_bits(fourier_discrete(measure, n)) for n in ns]

    @pytest.mark.parametrize("chunk", [1, 7, 100, 8192])
    def test_chunks(self, monkeypatch, chunk):
        # many chunks, int64 and Python-integer scales, negative base
        spec = SelfSimilarSpec.create(-5, ["1/7", "3/11", "-2/3"], ["1/6", "1/2", "1/3"])
        ns = [*range(-300, 301), 10 ** 12 + 5, -(10 ** 11)]
        singles = [_bits(fourier_selfsimilar(spec, n, 1e-13)) for n in ns]
        monkeypatch.setattr(spectral, "_CHUNK_ELEMENTS", chunk)
        assert [_bits(v) for v in spec.coefficients(1e-13).table(ns)] == singles

    def test_table_memoizes(self):
        coeffs = SelfSimilarSpec.create(3, ["0", "1/3"]).coefficients()
        first = coeffs.table([5, 2, 5, -4])
        assert sorted(coeffs.evaluated()) == [-4, 2, 5]
        assert coeffs.table([2, 5]) == [first[1], first[0]]
        assert coeffs(-4) is first[3]


class TestRoundingTerm:
    """The float64 error alone, measured against 200-bit arithmetic, stays
    inside the rounding term the certified error states."""

    @settings(max_examples=100, deadline=None)
    @given(self_similar_specs(), freqs, tols)
    def test_selfsimilar_product(self, spec, n, tol):
        new = fourier_selfsimilar(spec, n, tol)
        assume(not new.exact_zero)
        stated = (truncation_depth(spec, n, tol) + 2) * (len(spec.atoms) + 2) * ULP_52
        assert ref.distance(new.value, ref.truncated_product(spec, n, tol)) <= stated

    @settings(max_examples=150, deadline=None)
    @given(discrete_measures(), freqs)
    def test_discrete_average(self, measure, n):
        new = fourier_discrete(measure, n)
        assume(not new.exact_zero)
        stated = (len(measure.atoms) + 2) * ULP_52
        assert ref.distance(new.value, ref.discrete_sum(measure, n)) <= stated

    def test_octant_boundaries(self):
        check_octant_boundaries()

    @pytest.mark.parametrize("name", ["_COS", "_SIN"])
    def test_a_term_less_fails(self, monkeypatch, name):
        # the last Taylor term of either polynomial is 9 u (cos) or 183 u
        # (sin) at an offset of 1/8 turn, beyond the stated 6 u
        monkeypatch.setattr(spectral, name, getattr(spectral, name)[:-1])
        with pytest.raises(AssertionError):
            check_octant_boundaries()


def check_octant_boundaries():
    """Point masses at offsets of exactly +-1/8 turn and just either side of
    them stay within the stated (1 + 2) 2^-52 of 200-bit values."""
    big = 10 ** 12
    for j in range(16):
        for shift in (F(0), F(1, big), F(-1, big)):
            measure = DiscreteMeasure.point_mass(F(j, 16) + shift)
            for n in (1, 3, -7):
                got = fourier_discrete(measure, n)
                assert ref.distance(got.value, ref.discrete_sum(measure, n)) <= 3 * ULP_52


class TestExactAngles:
    @pytest.mark.parametrize("quarter", range(4))
    def test_quarter_turns(self, quarter):
        units = [1 + 0j, 1j, -1 + 0j, -1j]
        measure = DiscreteMeasure.point_mass(F(quarter, 4))
        for n in (1, 2, 3, 5, -1, -6, 4 * 10 ** 12 + 3):
            assert fourier_discrete(measure, n).value == units[n * quarter % 4]

    def test_quarter_turns_deep_in_the_product(self):
        # n a_i D^-s at 0, 1/4, 1/2, 3/4 turn for large moduli Q |D|^s
        modulus = 7 * 5 ** 30
        for quarter, unit in enumerate([1 + 0j, 1j, -1 + 0j, -1j]):
            data = _data(4 * modulus, [quarter * modulus], [1.0])
            re, im = spectral._character_products(data, 1, [1], [0])
            assert complex(re[0], im[0]) == unit
        # and at int64 moduli: n / 5^s is 1 mod 4 at every scale s <= 10, so
        # each factor is exactly i/4 - 1/2 - i/4
        data = _data(4, [1, 2, 3], [0.25, 0.5, 0.25])
        re, im = spectral._character_products(data, 5, [5 ** 10, -3 * 5 ** 10], [10, 10])
        assert [complex(a, b) for a, b in zip(re, im)] == [-(2.0 ** -11) + 0j] * 2

    def test_pi_constant(self):
        with mpmath.workprec(300):
            gap = mpmath.pi * mpmath.mpf(2) ** 124 - spectral._PI_SCALED
            assert 0 <= gap < 1


def _conjugate_bits(value: FourierValue) -> tuple:
    """`_bits` of the conjugate of a value, a zero imaginary part kept."""
    im = value.value.imag
    return value.value.real.hex(), (-im if im else im).hex(), value.error.hex(), value.exact_zero


def _ties(data: spectral._MeasureData, base: int, n: int, depth: int) -> bool:
    """Some scale s <= depth puts some atom at a tie offset: 4 n A_i = M_s / 2
    mod M_s, where the reductions of n and -n are not mirror images."""
    return any(
        (2 * 4 * n * a) % (2 * data.modulus * abs(base) ** s) == data.modulus * abs(base) ** s
        for s in range(depth + 1)
        for a in data.numerators
    )


half_bases = st.sampled_from([b for b in range(-10, 11) if abs(b) >= 2])


@st.composite
def half_specs(draw) -> SelfSimilarSpec:
    """One to four atoms over bases +-2..+-10; denominators 8 and 16 now and
    then, whose atoms reach tie offsets."""
    k = draw(st.integers(1, 4))
    den = st.sampled_from([8, 16]) if draw(st.booleans()) else st.integers(1, 60)
    points = draw(st.lists(st.builds(F, st.integers(-120, 120), den), min_size=k, max_size=k))
    return SelfSimilarSpec.create(draw(half_bases), points, draw(weight_lists(k)))


def _check_selfsimilar_mirror(spec: SelfSimilarSpec, n: int, tol: float) -> None:
    """f(-n) is conj f(n) with the same error and flag, both within the
    certified error of 200-bit products, and within the rounding term of
    the truncated ones."""
    plus, minus = fourier_selfsimilar(spec, n, tol), fourier_selfsimilar(spec, -n, tol)
    assert _bits(minus) == _conjugate_bits(plus)
    if plus.exact_zero:
        return
    stated = (truncation_depth(spec, n, tol) + 2) * (len(spec.atoms) + 2) * ULP_52
    for m, value in ((n, plus), (-n, minus)):
        miss = ref.distance(value.value, ref.truncated_product(spec, m, tol))
        assert miss <= stated and miss <= value.error


def _check_discrete_mirror(measure: DiscreteMeasure, n: int) -> None:
    plus, minus = fourier_discrete(measure, n), fourier_discrete(measure, -n)
    assert _bits(minus) == _conjugate_bits(plus)
    for m, value in ((n, plus), (-n, minus)):
        if not value.exact_zero:
            assert ref.distance(value.value, ref.discrete_sum(measure, m)) <= value.error


class TestHalfSpectrum:
    """A real measure has mu^(-n) = conj mu^(n): each batch evaluates |n|
    once and mirrors it.  The mirror is exact, so the value at -n keeps its
    certified error against 200-bit values, also at the tie offsets where a
    direct evaluation at -n would round the other way."""

    @settings(max_examples=150, deadline=None)
    @given(half_specs(), st.one_of(st.integers(1, 10 ** 9), st.integers(1, 64)), tols)
    def test_selfsimilar(self, spec, n, tol):
        _check_selfsimilar_mirror(spec, n, tol)

    @settings(max_examples=150, deadline=None)
    @given(discrete_measures(), st.integers(1, 10 ** 12))
    def test_discrete(self, measure, n):
        _check_discrete_mirror(measure, n)

    @pytest.mark.parametrize(
        "base, points, weights", [(2, ["0", "1/8"], ["1/3", "2/3"]), (-2, ["0", "3/8"], ["1/5", "4/5"])]
    )
    def test_selfsimilar_tie_offsets(self, base, points, weights):
        # every n = 2^j m, m odd, puts the second atom at a tie at scale j;
        # a direct evaluation at -n differed from the conjugate at 228 and
        # 297 of these n
        spec = SelfSimilarSpec.create(base, points, weights)
        ns = range(1, 301)
        assert all(_ties(spec._data, base, n, truncation_depth(spec, n, 1e-12)) for n in ns)
        for n in ns:
            _check_selfsimilar_mirror(spec, n, 1e-12)

    def test_discrete_tie_offsets(self):
        # the odd n put the atom 1/8 at a tie
        measure = DiscreteMeasure([F(0), F(1, 8), F(1, 2)], [F(1, 4), F(1, 4), F(1, 2)])
        assert sum(_ties(measure._data, 1, n, 0) for n in range(1, 65)) == 32
        for n in range(1, 65):
            _check_discrete_mirror(measure, n)

    def test_zero_parts_keep_their_sign(self):
        # e(n/2) = -1 - 0i at every odd n, as a direct evaluation at -n gives
        # it too; a mirror that wrote 0 - (-0) = +0 would differ
        measure = DiscreteMeasure.point_mass(F(1, 2))
        for n in (1, -1, 3, -3):
            assert _bits(fourier_discrete(measure, n)) == ((-1.0).hex(), (-0.0).hex(), (3 * ULP_52).hex(), False)

    def test_a_batch_evaluates_each_modulus_once(self, monkeypatch):
        spec = SelfSimilarSpec.create(-3, ["1/7", "2/5"], ["1/3", "2/3"])
        seen = []
        products = spectral._products

        def recorded(data, base, ns, depths):
            seen.append(list(ns))
            return products(data, base, ns, depths)

        monkeypatch.setattr(spectral, "_products", recorded)
        table = spec.coefficients().table([5, -5, -9, 0, 9, 2, -7])
        assert seen == [[2, 5, 7, 9]]
        assert [_bits(v) for v in table[1:3]] == [_conjugate_bits(table[0]), _conjugate_bits(table[4])]
