"""The toruswalk experiments that each benchmark workload runs.

Every workload is a fixed list of CLI configs; the benchmark seed reaches the
program only through each config's ``seed`` field.  Each workload also names
a pair of experiments that differ only in size (N and 2N), from which the
growth exponent of its cost is measured.

Sizes are chosen so that one repetition of a workload takes 1-4 s on a
2-core x86 machine, which leaves room for several repetitions in one run.
"""

from __future__ import annotations

import copy

# Outputs recorded in expected.json for this seed are also compared where
# they depend on the seed (sampled orbit points, digit-block frequencies).
DEFAULT_SEED = 0

_WALK_1D = {
    "kind": "walk-sim",
    "irrationals": ["sqrt2"],
    "D": [2, 3],
    "alpha": ["0", "1*sqrt2"],
    "x0": "1/7",
    "K": 8,
}
_WALK_2D = {
    "kind": "walk-sim",
    "irrationals": ["sqrt2", "sqrt3"],
    "D": [[[3, 1], [1, 3]], [[4, 1], [1, 4]]],
    "alpha": [["0", "0"], ["1*sqrt2", "1*sqrt3"]],
    "K": 8,
}
_ROTATION = {
    "kind": "rotation-case",
    "irrationals": ["sqrt2"],
    "alpha": ["1/2", "1/4*sqrt2"],
    "K": 8,
}
_NORMALITY = {
    "kind": "normality",
    "irrationals": ["sqrt2"],
    "D": 3,
    "r": [1, 1],
    "t": ["0", "2/3*sqrt2"],
    "L": 4,
}
# tol 1e-12 keeps every certified coefficient error below 2^-32.
_FOURIER = {
    "kind": "fourier",
    "measures": {
        "mu0": {"base": 4, "atoms": ["0", "1/2"]},
        "nu": {"base": 4, "atoms": ["0", "1/4"]},
        "tri": {"base": 3, "atoms": ["0", "1/3", "2/3"], "weights": ["1/4", "1/2", "1/4"]},
    },
    "tol": 1e-12,
    "zero_checks": [
        {"measure": "mu0", "pattern": "odd"},
        {"measure": "nu", "pattern": "twice_odd"},
    ],
    "haar_convolution": ["nu", "mu0"],
}
_STATIONARY = {"kind": "stationary-support", "D": [2, 3], "alpha": ["1/11", "2/13"]}
_RATIONAL = {"kind": "rational-case", "D": 3, "t": ["1/5", "7/10"], "K": 8}
_CONDITION = {
    "kind": "condition-check",
    "condition": "walk",
    "irrationals": ["sqrt2", "sqrt3"],
    "D": [[[3, 1], [1, 3]], [[4, 1], [1, 4]]],
    "alpha": [["0", "0"], ["1*sqrt2", "1*sqrt3"]],
}


def _with(base: dict, **fields) -> dict:
    cfg = copy.deepcopy(base)
    cfg.update(fields)
    return cfg


def _fourier(dump_range: int) -> dict:
    return _with(_FOURIER, dump_range=dump_range, haar_range=dump_range // 2)


# name -> {"experiments": {experiment name: config}, "scaling": (N, 2N)}
WORKLOADS: dict[str, dict] = {
    # walk_orbit_fixed dominates the 1-D runs; the 2-D run covers the matrix
    # path and the d > 1 Weyl grid; rotation runs the orbit engine at 160 bits.
    "walk": {
        "experiments": {
            "walk1d-N50k": _with(_WALK_1D, N=50_000),
            "walk1d-N100k": _with(_WALK_1D, N=100_000),
            "walk2d-N20k": _with(_WALK_2D, N=20_000),
            "rotation-N100k": _with(_ROTATION, N=100_000),
        },
        "scaling": ("walk1d-N50k", "walk1d-N100k"),
    },
    # code_prefix_fixed and digits_from_fixed: the divide-down and multiply-up
    # loops; the walk orbit engine stays idle.
    "digits": {
        "experiments": {
            "normality-N25k": _with(_NORMALITY, N=25_000),
            "normality-N50k": _with(_NORMALITY, N=50_000),
        },
        "scaling": ("normality-N25k", "normality-N50k"),
    },
    # the mpmath product path for the dump (with many pairs n, D*n), the exact
    # two-atom path for the zero checks; the orbit engines stay idle.
    "fourier": {
        "experiments": {
            "fourier-R250": _fourier(250),
            "fourier-R500": _fourier(500),
        },
        "scaling": ("fourier-R250", "fourier-R500"),
    },
    # exact linear algebra over Fraction (chains, groupcond) and the
    # rational-case pipeline in cli; no fixed-point orbit, no mpmath product.
    "exact": {
        "experiments": {
            "stationary-q143": _STATIONARY,
            "rational-N50k": _with(_RATIONAL, N=50_000),
            "rational-N100k": _with(_RATIONAL, N=100_000),
            "condition-2d": _CONDITION,
        },
        "scaling": ("rational-N50k", "rational-N100k"),
    },
}

# One tiny experiment per kind: what a fresh process pays before real work.
_SETUP = {
    "walk-sim": _with(_WALK_2D, N=500, K=2),
    "rotation-case": _with(_ROTATION, N=500, K=2),
    "normality": _with(_NORMALITY, N=500, L=2),
    "fourier": _with(_FOURIER, dump_range=8, haar_range=4),
    "stationary-support": _with(_STATIONARY, alpha=["1/3", "1/5"]),
    "rational-case": _with(_RATIONAL, N=500),
    "condition-check": _CONDITION,
}


def _seeded(configs: dict, seed: int) -> dict:
    return {name: _with(cfg, seed=seed) for name, cfg in configs.items()}


def experiments(workload: str, seed: int) -> dict[str, dict]:
    """Configs of the workload's experiments, in run order, with the seed set."""
    return _seeded(WORKLOADS[workload]["experiments"], seed)


def setup_experiments(workload: str, seed: int) -> dict[str, dict]:
    """One tiny config per experiment kind the workload uses."""
    kinds = dict.fromkeys(cfg["kind"] for cfg in WORKLOADS[workload]["experiments"].values())
    return _seeded({f"setup-{kind}": _SETUP[kind] for kind in kinds}, seed)
