"""Scratch memory of the per-sample passes beside an orbit, by tracemalloc.

numpy reports its array buffers to tracemalloc, so the peak of traced bytes
during a call, less what was traced before it, is what the call allocates
at its worst: its temporaries and its result.  At N = 2 10^5 each pass stays
within a few bytes per step plus one megabyte for its fixed blocks; the
whole-array passes these replaced took 24 to 49 bytes per step, the complex
passes over the whole sample 32 (1-D) and 96 (2-D), the engine's int64
prefix counts 16 for two amplifying letters, and the range check of an
OrbitSample 4.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from toruswalk import chains, fractal, stats
from toruswalk.exactcore import IntMatrix, IrrationalBasis, Scalar, TorusPoint, parse_scalar

N = 200_000
MB = 1 << 20


def scratch_bytes(fn) -> int:
    """Peak traced bytes of fn() beyond those traced when it starts; one call
    first, so that what a first call sets up once is not counted."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def eta():
    # the rational case of the benchmark: D = 3, t = (1/5, 7/10)
    return chains.build_eta_chain(3, [Scalar.rational(Fraction(t)) for t in ("1/5", "7/10")])


def test_letter_stream_holds_one_byte_per_letter():
    law = [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]
    used = scratch_bytes(lambda: fractal.walk_letter_stream(law, np.random.default_rng(0), N))
    assert used <= 1 * N + MB


def test_running_discrepancy_holds_the_sorted_buffer():
    sample = fractal.OrbitSample(np.random.default_rng(1).random((N, 1)), 0.0, 64)
    assert scratch_bytes(lambda: stats.running_discrepancy(sample)) <= 8 * N + MB


def test_block_frequencies_hold_narrow_digits_and_windows():
    # a digit list, as sample_digits gives it; its int64 copy lasts until
    # the one-byte offsets are made
    digits = np.random.default_rng(2).integers(0, 3, N).tolist()
    assert scratch_bytes(lambda: stats.block_frequencies(digits, 4)) <= 12 * N + MB


def test_rational_case_points_hold_the_points_and_narrow_indices(eta):
    # the points (8 bytes), state indices (2), letters and letter indices
    used = scratch_bytes(lambda: chains.rational_case_points(eta, np.random.default_rng(3), N))
    assert used <= 24 * N + MB


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(5).random((N, 2))


@pytest.mark.parametrize("dim, bound", [(1, MB), (2, 2 * MB)])
def test_character_means_hold_one_node(points, dim, bound):
    sample = fractal.OrbitSample(points[:, :dim], 0.0, 64)
    assert scratch_bytes(lambda: stats.character_means(sample, 8)) <= bound


def test_control_character_holds_one_node(points):
    sample = fractal.OrbitSample(points[:, :1], 0.0, 64)
    assert scratch_bytes(lambda: stats.control_character(sample, 3)) <= MB


def test_sample_range_check_holds_no_mask(points):
    # a boolean mask of the (N, 2) coordinates alone would be 2 bytes per step
    assert scratch_bytes(lambda: fractal.OrbitSample(points, 0.0, 64)) <= N


def test_walk_holds_the_points_and_checkpoints():
    # the walk benchmark's D = [2, 3] family: the points (8 bytes per step),
    # the letter indices (1) and the block maps' big integers; the prefix
    # counts of both amplifying letters are 12 bytes per 64 steps each
    basis = IrrationalBasis(("sqrt2",))
    endos = [
        fractal.AffineEndo(IntMatrix.scalar(b), (parse_scalar(a, basis),))
        for b, a in ((2, "0"), (3, "1*sqrt2"))
    ]
    x0 = TorusPoint([parse_scalar("1/7", basis)])
    letters = np.random.default_rng(4).integers(1, 3, N).astype(np.uint8)
    assert scratch_bytes(lambda: fractal.walk_orbit_fixed(endos, x0, letters)) <= 16 * N + MB


def test_block_frequencies_read_narrow_digits_in_place():
    # the digits as sample_digits gives them: one byte each, read without a
    # copy; the offsets and the window index are one byte each
    digits = np.random.default_rng(2).integers(0, 3, N).astype(np.uint8)
    assert scratch_bytes(lambda: stats.block_frequencies(digits, 4)) <= 3 * N + MB
