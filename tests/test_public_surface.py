"""The public surface stays put: every name a module lists in `__all__`
exists (a stale entry breaks `from toruswalk.x import *`), and the names
`toruswalk/__init__.py` re-exports are pinned, because the tests and the
benchmark import them."""

import ast
import types
from pathlib import Path

import toruswalk
from toruswalk import chains, cli, exactcore, fractal, groupcond, spectral, stats

MODULES = [chains, cli, exactcore, fractal, groupcond, spectral, stats]

PACKAGE_NAMES = {
    "exactcore": [
        "AdaptedNorm", "IntMatrix", "IrrationalBasis", "Scalar", "TorusPoint", "adapted_norm",
        "commute", "evaluate", "fractional_part", "is_expanding", "parse_scalar",
    ],
    "fractal": [
        "AffineEndo", "AffineIFS", "Word", "code_prefix", "h_word_at_zero", "kappa_ell_s",
        "orbit_identity_check", "sample_word", "walk_orbit_fixed", "walk_trajectory",
    ],
    "groupcond": ["DensityVerdict", "condition_ifs", "condition_walk", "is_dense"],
    "chains": [
        "EtaChain", "FiniteStationary", "build_eta_chain", "build_finite_stationary",
        "limit_law_fourier", "stationary_distribution",
    ],
    "spectral": [
        "CoefficientFunction", "DiscreteMeasure", "SelfSimilarSpec", "classify_index",
        "convolve", "is_haar_up_to",
    ],
    "stats": [
        "OrbitSample", "digit_block_freqs", "star_discrepancy_1d", "subsequence_compare",
        "weyl_sums",
    ],
}


def stale_names(module: types.ModuleType) -> list[str]:
    """The names in the module's `__all__` that it does not define."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def package_imports(source: str) -> dict[str, list[str]]:
    """{module: names} of the relative `from .module import ...` lines."""
    found: dict[str, list[str]] = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return found


def test_every_all_entry_resolves():
    for module in MODULES:
        assert stale_names(module) == [], module.__name__


def test_package_names_are_pinned():
    source = Path(toruswalk.__file__).read_text()
    assert package_imports(source) == PACKAGE_NAMES
    for names in PACKAGE_NAMES.values():
        for name in names:
            assert hasattr(toruswalk, name), name


def test_the_checks_see_a_stale_entry():
    module = types.ModuleType("m")
    module.present = 1
    module.__all__ = ["present", "gone"]
    assert stale_names(module) == ["gone"]
    source = "from .a import x, y\nfrom .b import z\nfrom os import path\n"
    assert package_imports(source) == {"a": ["x", "y"], "b": ["z"]}
