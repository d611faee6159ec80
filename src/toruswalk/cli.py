"""Experiment runner: seeded, reproducible experiments over the library's
constructions at desk scale, with JSON reports and CSV sidecars.

Subcommands:
    toruswalk run CONFIG [-o OUTDIR] [--seed SEED]
    toruswalk verify REPORT --suite NAME
    toruswalk schema

Configs are JSON (nested objects as tables); a file holding a list of
configs is a batch, executed by a worker pool sized by $TORUSWALK_WORKERS.
Reports embed the canonical config, its sha256, the seed and PRNG identity;
rerunning an identical (config, seed) reproduces the report byte-for-byte
except for the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import chains, fractal, groupcond, spectral, stats
from .exactcore import (
    IntMatrix,
    IrrationalBasis,
    Scalar,
    TorusPoint,
    parse_scalar,
)

__all__ = ["ConfigError", "normalize_config", "run", "verify_report", "main"]

PRNG_NAME = "numpy-PCG64/SeedSequence"
REPORT_SCHEMA = "toruswalk-report-v1"

KINDS = (
    "walk-sim",
    "normality",
    "condition-check",
    "rational-case",
    "fourier",
    "stationary-support",
    "rotation-case",
)


class ConfigError(ValueError):
    """Invalid experiment configuration (message names the offending field)."""


# ---------------------------------------------------------------------------
# config handling


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def _require(config: dict, field: str, kind: str):
    if field not in config:
        raise ConfigError(f"kind {kind!r}: missing field {field!r}")
    return config[field]


def _as_matrix(value, field: str) -> list[list[int]]:
    if isinstance(value, int):
        return [[value]]
    if isinstance(value, list) and value and all(isinstance(r, list) for r in value):
        return [[int(x) for x in row] for row in value]
    raise ConfigError(f"field {field!r}: expected an integer or row-major matrix")

def _as_scalar_list(value, field: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ConfigError(f"field {field!r}: expected a list of scalar strings")
    return list(value)


def normalize_config(raw: dict) -> dict:
    """Validate and canonicalize a config; parse(serialize(c)) == c holds."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"field 'kind': expected one of {KINDS}, got {kind!r}")

    def integer(value, field, minimum=None):
        """An integer field, at least `minimum` when one is given."""
        try:
            n = int(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field {field!r}: expected an integer, got {value!r}") from exc
        if minimum is not None and n < minimum:
            raise ConfigError(f"field {field!r}: must be >= {minimum}")
        return n

    def integers(value, field):
        if not isinstance(value, list):
            raise ConfigError(f"field {field!r}: expected a list of integers")
        return [integer(x, field) for x in value]

    cfg: dict = {"kind": kind}
    cfg["seed"] = integer(raw.get("seed", 0), "seed")
    cfg["irrationals"] = sorted(str(s) for s in raw.get("irrationals", []))
    precision = raw.get("precision", "auto")
    if precision != "auto":
        precision = integer(precision, "precision", 64)
    cfg["precision"] = precision
    basis = IrrationalBasis(tuple(cfg["irrationals"]))

    def check_scalars(strings, field):
        for s in strings:
            try:
                parse_scalar(s, basis)
            except Exception as exc:
                raise ConfigError(f"field {field!r}: bad scalar {s!r}: {exc}") from exc
        return strings

    def vector(value, field, dim=None):
        """A scalar vector; a plain string is a one-dimensional one."""
        vec = [value] if isinstance(value, str) else list(value)
        if dim is not None and len(vec) != dim:
            raise ConfigError(f"field {field!r}: entry dimension mismatch")
        return check_scalars([str(x) for x in vec], field)

    def probabilities(given, count: int, field: str = "P") -> list[str]:
        """One probability per map (or atom), uniform when not given."""
        if given is None:
            given = [f"1/{count}"] * count
        if not isinstance(given, list) or len(given) != count:
            raise ConfigError(f"field {field!r}: expected a list of {count} probabilities")
        return check_scalars([str(p) for p in given], field)

    if kind in ("walk-sim", "rotation-case"):
        cfg["N"] = integer(raw.get("N", 100000), "N", 1)
        cfg["K"] = integer(raw.get("K", 8), "K", 1)
        alphas = _require(raw, "alpha", kind)
        if kind == "walk-sim":
            d_raw = _require(raw, "D", kind)
            if not isinstance(d_raw, list):
                raise ConfigError("field 'D': expected a list of matrices/integers")
            cfg["D"] = [_as_matrix(m, "D") for m in d_raw]
            if len({len(m) for m in cfg["D"]}) != 1:
                raise ConfigError("field 'D': matrices must share one dimension")
            if len(cfg["D"]) != len(alphas):
                raise ConfigError("fields 'D' and 'alpha': need one alpha per matrix")
        else:
            cfg["D"] = None
            if "control_q" in raw:
                cfg["control_q"] = integer(raw["control_q"], "control_q")
        dim = len(cfg["D"][0]) if kind == "walk-sim" else 1
        cfg["alpha"] = [vector(a, "alpha", dim) for a in alphas]
        cfg["x0"] = vector(raw.get("x0", ["0"] * dim), "x0", dim)
        cfg["P"] = probabilities(raw.get("P"), len(alphas))
    elif kind == "normality":
        cfg["D"] = _as_matrix(_require(raw, "D", kind), "D")
        cfg["r"] = integers(_require(raw, "r", kind), "r")
        cfg["t"] = check_scalars(_as_scalar_list(_require(raw, "t", kind), "t"), "t")
        if len(cfg["r"]) != len(cfg["t"]):
            raise ConfigError(f"field 'r': expected {len(cfg['t'])} exponents, one per map")
        cfg["P"] = probabilities(raw.get("P"), len(cfg["t"]))
        cfg["N"] = integer(raw.get("N", 10000), "N", 1)
        cfg["L"] = integer(raw.get("L", 2), "L", 1)
        if cfg["L"] > cfg["N"]:
            raise ConfigError("field 'L': must be <= N")
    elif kind == "condition-check":
        which = raw.get("condition", "ifs")
        if which not in ("walk", "ifs"):
            raise ConfigError("field 'condition': expected 'walk' or 'ifs'")
        cfg["condition"] = which
        if which == "walk":
            d_raw = _require(raw, "D", kind)
            if not isinstance(d_raw, list) or not d_raw:
                raise ConfigError("field 'D': expected a non-empty list of matrices/integers")
            cfg["D"] = [_as_matrix(m, "D") for m in d_raw]
            dim = len(cfg["D"][0])
            alphas = _require(raw, "alpha", kind)
            if not isinstance(alphas, list) or len(alphas) != len(cfg["D"]):
                raise ConfigError("fields 'D' and 'alpha': need one alpha per matrix")
            cfg["alpha"] = [vector(a, "alpha") for a in alphas]
        else:
            cfg["D"] = _as_matrix(_require(raw, "D", kind), "D")
            cfg["r"] = integers(_require(raw, "r", kind), "r")
            dim = len(cfg["D"])
            cfg["t"] = [vector(t, "t") for t in _require(raw, "t", kind)]
    elif kind == "rational-case":
        d_mat = _as_matrix(_require(raw, "D", kind), "D")
        if len(d_mat) != 1:
            raise ConfigError("field 'D': rational-case is one-dimensional")
        cfg["D"] = d_mat
        cfg["t"] = check_scalars(_as_scalar_list(_require(raw, "t", kind), "t"), "t")
        cfg["P"] = probabilities(raw.get("P"), len(cfg["t"]))
        cfg["N"] = integer(raw.get("N", 100000), "N", 1)
        cfg["K"] = integer(raw.get("K", 8), "K", 1)
    elif kind == "stationary-support":
        d_raw = _require(raw, "D", kind)
        if not isinstance(d_raw, list) or not all(isinstance(x, int) for x in d_raw):
            raise ConfigError("field 'D': expected a list of integers (d = 1)")
        cfg["D"] = list(d_raw)
        cfg["alpha"] = check_scalars(
            _as_scalar_list(_require(raw, "alpha", kind), "alpha"), "alpha"
        )
        cfg["P"] = probabilities(raw.get("P"), len(cfg["alpha"]))
    elif kind == "fourier":
        measures = _require(raw, "measures", kind)
        if not isinstance(measures, dict) or not measures:
            raise ConfigError("field 'measures': expected a non-empty table")
        cfg["measures"] = {}
        for name, m in sorted(measures.items()):
            field = f"measures.{name}"
            if not isinstance(m, dict):
                raise ConfigError(f"field '{field}': expected a table")
            for key in ("base", "atoms"):
                if key not in m:
                    raise ConfigError(f"field '{field}.{key}': missing")
            base = integer(m["base"], f"{field}.base")
            if abs(base) < 2:
                raise ConfigError(f"field '{field}.base': |base| must be >= 2")
            atoms = check_scalars(_as_scalar_list(m["atoms"], f"{field}.atoms"), f"{field}.atoms")
            weights = probabilities(m.get("weights"), len(atoms), f"{field}.weights")
            try:
                spectral.SelfSimilarSpec.create(base, _fractions(atoms), _fractions(weights))
            except ValueError as exc:
                raise ConfigError(f"field '{field}': {exc}") from exc
            cfg["measures"][name] = {"base": base, "atoms": atoms, "weights": weights}
        cfg["dump_range"] = integer(raw.get("dump_range", 32), "dump_range", 0)
        cfg["tol"] = float(raw.get("tol", 1e-9))
        if not (math.isfinite(cfg["tol"]) and cfg["tol"] > 0):
            raise ConfigError("field 'tol': must be a finite number > 0")
        zc = []
        for check in raw.get("zero_checks", []):
            if not isinstance(check, dict):
                raise ConfigError("field 'zero_checks': expected a list of tables")
            if check.get("measure") not in cfg["measures"]:
                raise ConfigError("zero_checks: unknown measure name")
            if check.get("pattern") not in ("odd", "twice_odd"):
                raise ConfigError("zero_checks: pattern must be 'odd' or 'twice_odd'")
            zc.append(
                {
                    "measure": check["measure"],
                    "pattern": check["pattern"],
                    "k_max": integer(check.get("k_max", 5), "zero_checks.k_max"),
                    "m_max": integer(check.get("m_max", 20), "zero_checks.m_max"),
                }
            )
        cfg["zero_checks"] = zc
        conv = raw.get("haar_convolution")
        if conv is not None:
            conv = list(conv)
            if len(conv) != 2 or any(c not in cfg["measures"] for c in conv):
                raise ConfigError("haar_convolution: expected two measure names")
        cfg["haar_convolution"] = conv
        cfg["haar_range"] = integer(raw.get("haar_range", 1000), "haar_range", 1)
    return cfg


def _basis_of(cfg: dict) -> IrrationalBasis:
    return IrrationalBasis(tuple(cfg["irrationals"]))


def _scalars(strings, basis) -> list[Scalar]:
    return [parse_scalar(s, basis) for s in strings]


def _fractions(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


# ---------------------------------------------------------------------------
# sidecar helpers


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# rows formatted per `%` in _write_points_csv: enough to amortise the
# interpreter, few enough that the chunk's strings stay small
_POINTS_CHUNK_ROWS = 2048


def _write_points_csv(path: Path, points: np.ndarray) -> None:
    """Write an (N, d) point array as header `n,x0,...` and one row per
    point: its 1-based index, then each coordinate as %.17g, CRLF line ends.

    The bytes are those of `_write_csv` with `_fmt` cells; each chunk of
    rows is one interleaved list formatted by a single `%`.
    """
    count, dim = points.shape
    width = dim + 1
    row_fmt = "%d" + ",%.17g" * dim + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(["n"] + [f"x{j}" for j in range(dim)]) + "\r\n")
        for start in range(0, count, _POINTS_CHUNK_ROWS):
            stop = min(start + _POINTS_CHUNK_ROWS, count)
            flat: list = [0] * ((stop - start) * width)
            flat[0::width] = range(start + 1, stop + 1)
            for j in range(dim):
                flat[j + 1 :: width] = points[start:stop, j].tolist()
            fh.write(row_fmt * (stop - start) % tuple(flat))


def _weyl_rows(ws: dict) -> list[list[str]]:
    items = sorted(ws.items())
    return [[",".join(str(i) for i in k), _fmt(v)] for k, v in items]


def _running_discrepancy(points: np.ndarray, error_bound: float, checkpoints: int = 20):
    n = len(points)
    rows = []
    for i in range(1, checkpoints + 1):
        m = max(1, (n * i) // checkpoints)
        sub = stats.OrbitSample(points[:m, :1], error_bound, 64)
        rows.append([m, _fmt(stats.star_discrepancy_1d(sub))])
    return rows


# ---------------------------------------------------------------------------
# experiment kinds


def _run_walk_like(cfg: dict, rng: np.random.Generator, outdir: Path) -> tuple[dict, list[str], int | None]:
    basis = _basis_of(cfg)
    rotation = cfg["kind"] == "rotation-case"
    alphas = [_scalars(vec, basis) for vec in cfg["alpha"]]
    dim = len(alphas[0])
    if rotation:
        mats = [IntMatrix.identity(dim) for _ in alphas]
    else:
        mats = [IntMatrix.from_rows(m) for m in cfg["D"]]
    endos = [fractal.AffineEndo(m, tuple(a)) for m, a in zip(mats, alphas)]
    x0 = TorusPoint(_scalars(cfg["x0"], basis))
    n_steps = cfg["N"]
    letters = fractal.walk_letter_stream(_fractions(cfg["P"]), rng, n_steps)
    precision = None if cfg["precision"] == "auto" else cfg["precision"]
    orbit = fractal.walk_orbit_fixed(endos, x0, letters, precision_bits=precision)
    sample = stats.OrbitSample(orbit.points, orbit.error_bound, orbit.precision_bits)
    ws = stats.weyl_sums(sample, cfg["K"])
    results: dict = {
        "N": n_steps,
        "K": cfg["K"],
        "weyl": {",".join(map(str, k)): _fmt(v) for k, v in sorted(ws.items())},
        "max_weyl": max(ws.values()),
        "error_bound": orbit.error_bound,
    }
    sidecars = ["weyl.csv", "trajectory.csv"]
    _write_csv(outdir / "weyl.csv", ["k", "abs_S_N"], _weyl_rows(ws))
    _write_points_csv(outdir / "trajectory.csv", orbit.points)
    if dim == 1:
        results["star_discrepancy"] = stats.star_discrepancy_1d(sample)
        _write_csv(
            outdir / "discrepancy.csv",
            ["n", "star_discrepancy"],
            _running_discrepancy(orbit.points, orbit.error_bound),
        )
        sidecars.append("discrepancy.csv")
    if rotation and cfg.get("control_q"):
        q = cfg["control_q"]
        z = np.exp(2j * np.pi * q * orbit.points[:, 0])
        results["control_q"] = q
        results["control_char"] = float(abs(np.mean(z)))
    return results, sidecars, orbit.precision_bits


def _run_normality(cfg: dict, rng: np.random.Generator, outdir: Path) -> tuple[dict, list[str], int | None]:
    basis = _basis_of(cfg)
    ifs = fractal.AffineIFS.create(
        cfg["D"], cfg["r"], [[s] for s in _scalars(cfg["t"], basis)],
        _fractions(cfg["P"]),
    )
    if ifs.dimension != 1:
        raise ConfigError("normality runs are one-dimensional")
    base = ifs.d_matrix.rows[0][0]
    if base < 2:
        raise ConfigError("normality digits need D >= 2")
    count = cfg["N"]
    min_bits = 0 if cfg["precision"] == "auto" else cfg["precision"]
    digits, points, bound, bits, word_len = stats.sample_digits(ifs, rng, count, min_bits)
    max_len = cfg["L"]
    freqs = stats.block_frequencies(digits, max_len)
    deviations = stats.block_deviations(freqs, base, max_len)
    sample = stats.OrbitSample(points, bound, bits)
    disc = stats.star_discrepancy_1d(sample)
    rows = []
    for length in range(1, max_len + 1):
        expected = base ** -length
        for block in stats.all_blocks(base, length):
            f = freqs.get(block, 0.0)
            rows.append(
                ["".join(map(str, block)), _fmt(f), _fmt(expected), _fmt(abs(f - expected))]
            )
    _write_csv(outdir / "blocks.csv", ["block", "freq", "expected", "deviation"], rows)
    _write_csv(
        outdir / "discrepancy.csv",
        ["n", "star_discrepancy"],
        _running_discrepancy(points[:, None], bound),
    )
    results = {
        "N": count,
        "base": base,
        "word_length": word_len,
        "block_deviation": {str(k): v for k, v in deviations.items()},
        "max_block_deviation": max(deviations.values()),
        "star_discrepancy": disc,
    }
    return results, ["blocks.csv", "discrepancy.csv"], bits


def _run_condition_check(cfg: dict, rng, outdir: Path) -> tuple[dict, list[str], None]:
    basis = _basis_of(cfg)
    if cfg["condition"] == "walk":
        mats = [IntMatrix.from_rows(m) for m in cfg["D"]]
        alphas = [TorusPoint(_scalars(vec, basis)) for vec in cfg["alpha"]]
        verdict = groupcond.condition_walk(mats, alphas)
    else:
        mat = IntMatrix.from_rows(cfg["D"])
        points = [TorusPoint(_scalars(vec, basis)) for vec in cfg["t"]]
        verdict = groupcond.condition_ifs(mat, cfg["r"], points)
    results = {
        "dense": verdict.dense,
        "witness": list(verdict.witness) if verdict.witness else None,
        "witness_valid": verdict.witness_pairs_integral(),
        "difference_set": sorted(
            {
                "(" + ", ".join(str(c) for c in p.reduced().coords) + ")"
                for p in verdict.tested
            }
        ),
    }
    return results, [], None


def _run_stationary_support(cfg: dict, rng, outdir: Path) -> tuple[dict, list[str], None]:
    alphas = _scalars(cfg["alpha"], _basis_of(cfg))
    fs = chains.build_finite_stationary(cfg["D"], alphas, _fractions(cfg["P"]))
    results = {
        "x0": str(fs.x0),
        "q": fs.q,
        "states": [str(a) for a in fs.a_values],
        "betas": [str(b) for b in fs.betas],
        "transition": [[str(x) for x in row] for row in fs.transition],
        "stationary": [str(x) for x in fs.stationary],
        "invariance_exact": fs.support_is_invariant(alphas),
        "stationary_exact": fs.stationary_is_exact(),
        "pushforward_stationary": fs.pushforward_is_stationary(),
    }
    _write_csv(
        outdir / "stationary.csv",
        ["state", "weight"],
        [[str(a), str(w)] for a, w in zip(fs.a_values, fs.stationary)],
    )
    return results, ["stationary.csv"], None


def _run_rational_case(cfg: dict, rng: np.random.Generator, outdir: Path) -> tuple[dict, list[str], int | None]:
    basis = _basis_of(cfg)
    t_scalars = _scalars(cfg["t"], basis)
    probs = _fractions(cfg["P"])
    d_value = cfg["D"][0][0]
    eta = chains.build_eta_chain(d_value, t_scalars, probs)
    ifs = fractal.AffineIFS.create(
        d_value, [1] * len(t_scalars), [[s] for s in t_scalars], probs
    )
    n_steps = cfg["N"]
    k_max = cfg["K"]
    points, eta_idx, bound, precision_used = chains.rational_case_points(
        eta, t_scalars, rng, n_steps
    )
    freq = np.bincount(eta_idx, minlength=len(eta.states)) / n_steps
    exact_p = np.array([float(x) for x in eta.stationary])
    state_dev = float(np.max(np.abs(freq - exact_p)))
    sample = stats.OrbitSample(points, bound, 64)
    # one pass of characters serves the Weyl sums, char_dev and chars.csv
    means = stats.character_means(sample, k_max)
    ws = {k: abs(v) for k, v in means.items()}

    results = {
        "N": n_steps,
        "K": k_max,
        "q": eta.q,
        "states": [str(a) for a in eta.states],
        "stationary": [str(x) for x in eta.stationary],
        "transition": [[str(x) for x in row] for row in eta.transition],
        "state_freq_dev": state_dev,
        "weyl": {",".join(map(str, k)): _fmt(v) for k, v in sorted(ws.items())},
    }
    sidecars = ["states.csv"]
    _write_csv(
        outdir / "states.csv",
        ["state", "stationary", "empirical"],
        [
            [str(a), str(p), _fmt(f)]
            for a, p, f in zip(eta.states, eta.stationary, freq)
        ],
    )
    if all(s.is_rational() for s in t_scalars):
        law = chains.limit_law_fourier(eta, ifs)
        results["char_dev"] = stats.fourier_deviation(means, law)
        rows = []
        for (n,), emp in sorted(means.items()):
            v = law(n)
            rows.append(
                [n, _fmt(v.value.real), _fmt(v.value.imag), _fmt(emp.real), _fmt(emp.imag), _fmt(abs(emp - v.value))]
            )
        _write_csv(
            outdir / "chars.csv",
            ["n", "predicted_re", "predicted_im", "empirical_re", "empirical_im", "abs_diff"],
            rows,
        )
        sidecars.append("chars.csv")
    else:
        results["char_dev"] = None
        results["note"] = "t_1 irrational: limit law not finitely computable"
    return results, sidecars, precision_used


def _run_fourier(cfg: dict, rng, outdir: Path) -> tuple[dict, list[str], None]:
    tol = cfg["tol"]
    specs = {}
    coeff_fns = {}
    for name, m in cfg["measures"].items():
        specs[name] = spectral.SelfSimilarSpec.create(
            m["base"], _fractions(m["atoms"]), _fractions(m["weights"])
        )
        coeff_fns[name] = specs[name].coefficients(tol)
    sidecars = []
    for name, fn in coeff_fns.items():
        rows = []
        for n in range(-cfg["dump_range"], cfg["dump_range"] + 1):
            v = fn(n)
            rows.append(
                [n, _fmt(v.value.real), _fmt(v.value.imag), _fmt(v.error), int(v.exact_zero)]
            )
        fname = f"coefficients_{name}.csv"
        _write_csv(outdir / fname, ["n", "re", "im", "certified_error", "exact_zero"], rows)
        sidecars.append(fname)

    results: dict = {"zero_checks": []}
    for check in cfg["zero_checks"]:
        fn = coeff_fns[check["measure"]]
        ok = True
        for k in range(check["k_max"] + 1):
            for m in range(-check["m_max"], check["m_max"] + 1):
                n = 4 ** k * ((2 * m + 1) if check["pattern"] == "odd" else (4 * m + 2))
                if not fn(n).exact_zero:
                    ok = False
        results["zero_checks"].append(
            {"measure": check["measure"], "pattern": check["pattern"], "all_exact_zero": ok}
        )
    if cfg["haar_convolution"]:
        a, b = cfg["haar_convolution"]
        conv = spectral.convolve(coeff_fns[a], coeff_fns[b])
        results["haar_up_to"] = spectral.is_haar_up_to(conv, cfg["haar_range"])
        # which measure kills which index family, decided by probing n=1 and 2
        odd_killer = a if coeff_fns[a](1).exact_zero else b
        even_killer = a if coeff_fns[a](2).exact_zero else b
        routing = coeff_fns[odd_killer](1).exact_zero and coeff_fns[even_killer](2).exact_zero
        for n in range(1, cfg["haar_range"] + 1):
            _, pattern, _ = spectral.classify_index(n)
            routed = coeff_fns[odd_killer if pattern == "odd" else even_killer](n)
            if not routed.exact_zero:
                routing = False
        results["routing_consistent"] = routing
        results["haar_range"] = cfg["haar_range"]
    results["diagnostics"] = {
        name: _fourier_diagnostics(specs[name], fn, tol) for name, fn in coeff_fns.items()
    }
    return results, sidecars, None


def _fourier_diagnostics(spec, coeffs, tol: float) -> dict:
    """How one measure's coefficients were computed: how many, the deepest
    truncated product among them (None when none needed a product), and by
    which character evaluator."""
    evaluated = coeffs.evaluated()
    products = [abs(n) for n, v in evaluated.items() if n and not v.exact_zero]
    return {
        "coefficients": len(evaluated),
        "max_depth": spectral.truncation_depth(spec, max(products), tol) if products else None,
        "evaluator": spectral.EVALUATOR,
    }


_RUNNERS = {
    "walk-sim": _run_walk_like,
    "rotation-case": _run_walk_like,
    "normality": _run_normality,
    "condition-check": _run_condition_check,
    "stationary-support": _run_stationary_support,
    "rational-case": _run_rational_case,
    "fourier": _run_fourier,
}


def run(raw_config: dict, outdir: Path | str, seed_override: int | None = None) -> dict:
    """Execute one experiment; returns the report (also written to outdir)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = normalize_config(raw_config)
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    results, sidecars, precision = _RUNNERS[cfg["kind"]](cfg, rng, outdir)
    report = {
        "schema": REPORT_SCHEMA,
        "kind": cfg["kind"],
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "seed": cfg["seed"],
        "prng": PRNG_NAME,
        "precision_bits": precision,
        "results": results,
        "sidecars": sidecars,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with (outdir / "report.json").open("w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return report


def report_body(report: dict) -> str:
    """Canonical serialization of everything except the timestamp."""
    body = {k: v for k, v in report.items() if k != "timestamp"}
    return canonical_json(body)


# ---------------------------------------------------------------------------
# verification suites


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"check": name, "pass": bool(ok), "detail": detail}


def verify_report(report: dict, suite: str) -> list[dict]:
    """Threshold checks per suite; raises ConfigError on schema problems."""
    for field in ("schema", "kind", "config", "config_sha256", "results"):
        if field not in report:
            raise ConfigError(f"report missing field {field!r}")
    if report["schema"] != REPORT_SCHEMA:
        raise ConfigError(f"unknown report schema {report['schema']!r}")
    if config_hash(report["config"]) != report["config_sha256"]:
        raise ConfigError("config hash mismatch: report was tampered with")
    if suite != report["kind"]:
        raise ConfigError(
            f"suite {suite!r} does not match report kind {report['kind']!r}"
        )
    res = report["results"]
    checks: list[dict] = []
    if suite in ("walk-sim", "rotation-case"):
        offending = sorted(
            k for k, v in res.get("weyl", {}).items() if float(v) > 0.05
        )
        detail = f"max |S_N(k)| = {res['max_weyl']:.4f} (<= 0.05)"
        if offending:
            detail += f"; offending k: {', '.join(offending)}"
        checks.append(_check("weyl", res["max_weyl"] <= 0.05 and not offending, detail))
        if "star_discrepancy" in res:
            checks.append(
                _check(
                    "discrepancy",
                    res["star_discrepancy"] <= 0.02,
                    f"D* = {res['star_discrepancy']:.4f} (<= 0.02)",
                )
            )
        if suite == "rotation-case" and "control_char" in res:
            checks.append(
                _check(
                    "control",
                    res["control_char"] >= 0.9,
                    f"|S_N({res['control_q']})| = {res['control_char']:.4f} (>= 0.9)",
                )
            )
    elif suite == "normality":
        checks.append(
            _check(
                "blocks",
                res["max_block_deviation"] <= 0.02,
                f"max block deviation = {res['max_block_deviation']:.4f} (<= 0.02)",
            )
        )
        checks.append(
            _check(
                "discrepancy",
                res["star_discrepancy"] <= 0.03,
                f"D* = {res['star_discrepancy']:.4f} (<= 0.03)",
            )
        )
    elif suite == "rational-case":
        checks.append(
            _check(
                "state-frequencies",
                res["state_freq_dev"] <= 0.01,
                f"max |freq - p| = {res['state_freq_dev']:.4f} (<= 0.01)",
            )
        )
        if res.get("char_dev") is not None:
            checks.append(
                _check(
                    "characters",
                    res["char_dev"] <= 0.03,
                    f"max |emp - predicted| = {res['char_dev']:.4f} (<= 0.03)",
                )
            )
    elif suite == "fourier":
        for zc in res["zero_checks"]:
            checks.append(
                _check(
                    f"zeros-{zc['measure']}-{zc['pattern']}",
                    zc["all_exact_zero"],
                    "all family members exactly zero",
                )
            )
        if "haar_up_to" in res:
            checks.append(
                _check("haar", res["haar_up_to"], f"Haar up to {res['haar_range']}")
            )
            checks.append(
                _check("routing", res["routing_consistent"], "classify_index routing")
            )
    elif suite == "stationary-support":
        checks.append(_check("invariance", res["invariance_exact"], "h_i(A+x0) in A+x0"))
        checks.append(
            _check("stationary", res["stationary_exact"], "v P = v exactly")
        )
        checks.append(
            _check(
                "pushforward",
                res["pushforward_stationary"],
                "sum_i P_i (h_i)_* nu = nu exactly",
            )
        )
    elif suite == "condition-check":
        if res["dense"]:
            checks.append(_check("dense", res["witness"] is None, "dense, no witness"))
        else:
            checks.append(
                _check("witness", res["witness_valid"], f"witness {res['witness']}")
            )
    else:
        raise ConfigError(f"unknown suite {suite!r}")
    return checks


# ---------------------------------------------------------------------------
# schema description


SCHEMA_DOC = {
    "config": {
        "kind": f"one of {list(KINDS)}",
        "seed": "integer, default 0 (PRNG: " + PRNG_NAME + ")",
        "irrationals": "declared symbol names, e.g. ['sqrt2']; sqrtN, pi, e supported",
        "precision": "'auto' or explicit bits (>= 64)",
        "scalar-syntax": "terms 'a/b' or 'a/b*NAME' joined by '+'/'-', e.g. '1/3 + 2/3*sqrt2'",
        "matrix-syntax": "row-major integer lists, [[2,0],[0,3]]; plain int means 1x1",
    },
    "walk-sim": {
        "D": "list of matrices (one per map)",
        "alpha": "list of scalar vectors",
        "x0": "scalar vector",
        "P": "selection probabilities (rationals, default uniform)",
        "N": "steps",
        "K": "character range",
    },
    "rotation-case": {
        "alpha": "list of scalars (translations)",
        "x0": "scalar",
        "P": "selection probabilities (rationals, default uniform)",
        "control_q": "optional: also report |S_N(q)|",
        "N": "steps",
        "K": "character range",
    },
    "normality": {
        "D": "expanding integer (base)",
        "r": "positive integer exponents",
        "t": "scalar translations",
        "P": "probabilities",
        "N": "digits",
        "L": "max block length",
    },
    "condition-check": {
        "condition": "'walk' or 'ifs'",
        "walk fields": "D (matrices), alpha (scalar vectors)",
        "ifs fields": "D (matrix), r (exponents), t (scalar vectors)",
    },
    "rational-case": {
        "D": "integer >= 2",
        "t": "scalars with rational differences",
        "P": "probabilities",
        "N": "steps",
        "K": "character range",
    },
    "stationary-support": {
        "D": "list of integers (|D_i| >= 2)",
        "alpha": "scalars",
        "P": "probabilities",
    },
    "fourier": {
        "measures": "{name: {base, atoms, weights}}",
        "dump_range": "CSV coefficient range",
        "zero_checks": "[{measure, pattern: odd|twice_odd, k_max, m_max}]",
        "haar_convolution": "[nameA, nameB] or null",
        "haar_range": "N for is-Haar check",
        "tol": "product truncation tolerance (finite, > 0)",
        "results.diagnostics": "per measure: coefficients evaluated, max_depth "
        "(deepest truncated product, null when every value was an exact zero), evaluator",
    },
    "report": {
        "schema": REPORT_SCHEMA,
        "determinism": "identical (config, seed) gives identical report except 'timestamp'",
        "sidecars": "CSV files listed in the report, written next to report.json",
        "trajectory.csv": "walk-sim and rotation-case: header 'n,x0,...,x{d-1}', one row "
        "per orbit point (1-based n, coordinates as %.17g), CRLF line ends",
    },
}


# ---------------------------------------------------------------------------
# entry point


def _run_one(args: tuple[dict, str, int | None]) -> str:
    raw, outdir, seed = args
    report = run(raw, outdir, seed)
    return str(Path(outdir) / "report.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="toruswalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config (or batch list)")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("-o", "--outdir", type=Path, default=Path("toruswalk-out"))
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")

    p_verify = sub.add_parser("verify", help="check a report against a suite")
    p_verify.add_argument("report", type=Path)
    p_verify.add_argument("--suite", required=True)

    sub.add_parser("schema", help="print the config/report schema description")

    args = parser.parse_args(argv)

    if args.command == "schema":
        json.dump(SCHEMA_DOC, sys.stdout, indent=2)
        print()
        return 0

    if args.command == "run":
        try:
            loaded = json.loads(args.config.read_text())
        except json.JSONDecodeError as exc:
            print(f"config parse error: line {exc.lineno}, col {exc.colno}: {exc.msg}", file=sys.stderr)
            return 2
        try:
            if isinstance(loaded, list):
                jobs = [
                    (cfg, str(args.outdir / f"experiment_{i}"), args.seed)
                    for i, cfg in enumerate(loaded)
                ]
                workers = int(os.environ.get("TORUSWALK_WORKERS", "1"))
                if workers > 1:
                    from concurrent.futures import ProcessPoolExecutor

                    with ProcessPoolExecutor(max_workers=workers) as pool:
                        for path in pool.map(_run_one, jobs):
                            print(path)
                else:
                    for job in jobs:
                        print(_run_one(job))
            else:
                report = run(loaded, args.outdir, args.seed)
                print(args.outdir / "report.json")
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (chains.RationalityError, fractal.PrecisionExceededError) as exc:
            print(f"condition violated: {exc}", file=sys.stderr)
            return 3
        except (ValueError, ArithmeticError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "verify":
        try:
            report = json.loads(args.report.read_text())
        except json.JSONDecodeError as exc:
            print(f"report parse error: {exc}", file=sys.stderr)
            return 2
        try:
            checks = verify_report(report, args.suite)
        except ConfigError as exc:
            print(f"schema error: {exc}", file=sys.stderr)
            return 2
        except (KeyError, TypeError) as exc:
            print(f"schema error: malformed results field ({exc})", file=sys.stderr)
            return 2
        failed = [c for c in checks if not c["pass"]]
        for c in checks:
            status = "PASS" if c["pass"] else "FAIL"
            print(f"{status} {c['check']}: {c['detail']}")
        return 0 if not failed else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
