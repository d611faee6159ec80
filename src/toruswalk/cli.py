"""Experiment runner: seeded, reproducible experiments over the library's
constructions at desk scale, with JSON reports and CSV sidecars.

Subcommands:
    toruswalk run CONFIG [-o OUTDIR] [--seed SEED]
    toruswalk verify REPORT --suite NAME
    toruswalk schema

Configs are JSON (nested objects as tables).  Each field of each kind is one
row of `FIELDS`: `normalize_config` parses a config by its rows and
`toruswalk schema` prints them with their defaults.  A file holding a list
of configs is a batch, run in order into OUTDIR/experiment_<i>; a job that
fails writes error.json (field, message, exit class) into its directory, the
batch goes on, and its exit code is the largest class met.  Reports embed
the canonical config, its sha256, the seed and PRNG identity; rerunning an
identical (config, seed) reproduces the report byte-for-byte except for the
timestamp field.  `verify` applies the suite's rows of `CHECKS`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import operator
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import chains, fractal, groupcond, spectral, stats
from .exactcore import (
    IntMatrix,
    IrrationalBasis,
    NearIntegerError,
    Scalar,
    TorusPoint,
    parse_scalar,
)

__all__ = ["ConfigError", "normalize_config", "run", "verify_report", "main"]

PRNG_NAME = "numpy-PCG64/SeedSequence"
REPORT_SCHEMA = "toruswalk-report-v1"


class ConfigError(ValueError):
    """Invalid experiment configuration; the message and `field` name the
    offending field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _bad(field: str, problem: str) -> ConfigError:
    return ConfigError(f"field {field!r}: {problem}", field)


# ---------------------------------------------------------------------------
# config handling


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


# A parser maps (value, dotted field name, config parsed so far) to the
# canonical value; scalars are parsed against the config's irrationals.


def _int(value, field, cfg=None, minimum=None, maximum=None) -> int:
    """An integer; bools and floats with a fractional part are refused."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        n = int(value)
    except (TypeError, ValueError) as exc:
        raise _bad(field, f"expected an integer, got {value!r}") from exc
    if minimum is not None and n < minimum:
        raise _bad(field, f"must be >= {minimum}")
    if maximum is not None and n > maximum:
        raise _bad(field, f"must be <= {maximum}")
    return n


def _at_least(minimum: int, maximum: int | None = None) -> Callable:
    return lambda value, field, cfg=None: _int(value, field, minimum=minimum, maximum=maximum)


def _base(value, field, cfg=None) -> int:
    """An integer b with 2 <= |b| <= MAX_TABLE: a map x -> b x that expands."""
    b = _int(value, field)
    if not 2 <= abs(b) <= MAX_TABLE:
        raise _bad(field, f"must satisfy 2 <= |value| <= {MAX_TABLE}")
    return b


def _choice(*options) -> Callable:
    def parse(value, field, cfg=None):
        if value not in options:
            raise _bad(field, f"expected one of {options}, got {value!r}")
        return value

    return parse


def _list_of(item: Callable, what: str) -> Callable:
    def parse(value, field, cfg=None) -> list:
        if not isinstance(value, list) or not value:
            raise _bad(field, f"expected a non-empty list of {what}")
        return [item(x, field, cfg) for x in value]

    return parse


def _text(value, field, cfg=None) -> str:
    if not isinstance(value, str):
        raise _bad(field, f"expected a string, got {value!r}")
    return value


def _scalar(value, field, cfg) -> str:
    text = _text(value, field)
    try:
        scalar = parse_scalar(text, _basis_of(cfg))
    except ValueError as exc:
        raise _bad(field, f"bad scalar {text!r}: {exc}") from exc
    if abs(scalar.evaluate(64)[0]) > MAX_SCALAR:
        raise _bad(field, f"scalar {text!r} exceeds {MAX_SCALAR} in absolute value")
    return text


def _vector(value, field, cfg) -> list[str]:
    """A scalar vector; a plain string is a one-dimensional one."""
    return _scalar_list([value] if isinstance(value, str) else value, field, cfg)


def _matrix(value, field, cfg=None) -> list[list[int]]:
    """A square row-major integer matrix; a plain integer means 1 x 1."""
    if not isinstance(value, list):
        return [[_int(value, field)]]
    if not value or not all(isinstance(row, list) and len(row) == len(value) for row in value):
        raise _bad(field, "expected an integer or a square row-major matrix")
    return [[_int(x, field) for x in row] for row in value]


_scalar_list = _list_of(_scalar, "scalar strings")
_vectors = _list_of(_vector, "scalar vectors")
_matrices = _list_of(_matrix, "matrices/integers")


def _symbols(value, field, cfg=None) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise _bad(field, "expected a list of symbol names")
    try:
        IrrationalBasis(tuple(value))
    except (KeyError, ValueError) as exc:
        raise _bad(field, exc.args[0]) from exc
    return sorted(value)


def _positive_float(value, field, cfg=None) -> float:
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise _bad(field, f"must be a finite number > 0, got {value!r}")
    return x


def _precision(value, field, cfg=None):
    return value if value == "auto" else _int(value, field, minimum=64, maximum=MAX_PRECISION)


def _measures(value, field, cfg) -> dict:
    if not isinstance(value, dict) or not value:
        raise _bad(field, "expected a non-empty table")
    return {name: _table(m, MEASURE_FIELDS, f"{field}.{name}", cfg) for name, m in sorted(value.items())}


def _zero_checks(value, field, cfg) -> list[dict]:
    if not isinstance(value, list):
        raise _bad(field, "expected a list of tables")
    return [_table(check, ZERO_CHECK_FIELDS, field, cfg) for check in value]


class _Default(str):
    """A default that is not a value; the text says what it is."""


REQUIRED = _Default("required")
OPTIONAL = _Default("optional")  # left out of the config when not given
# filled in by normalize_config after the table pass
UNIFORM = _Default("default: uniform")
ORIGIN = _Default("default: the origin")


class Field(NamedTuple):
    """One config field; null or absent means `default`."""

    name: str
    parse: Callable
    default: object
    doc: str


def _table(raw, rows: list[Field], field: str = "", cfg: dict | None = None) -> dict:
    """Parse the table `raw` by `rows`, refusing fields it does not know.
    Scalars use the irrationals of `cfg`, or of the table itself."""
    if not isinstance(raw, dict):
        raise _bad(field, "expected a table")
    prefix, names = f"{field}." if field else "", [f.name for f in rows]
    for key in raw:
        if key not in names:
            raise _bad(f"{prefix}{key}", f"unknown field; expected one of {names}")
    out: dict = {}
    for f in rows:
        value = f.default if raw.get(f.name) is None else raw[f.name]
        if value is REQUIRED:
            raise _bad(prefix + f.name, "missing")
        if value is not OPTIONAL:
            fill = value is None or isinstance(value, _Default)
            out[f.name] = None if fill else f.parse(value, prefix + f.name, cfg or out)
    return out


# Upper bounds of the size fields, far above every desk-scale run, so that a
# size typed wrong (precision: 7.05e16) is refused by name before any work.
MAX_STEPS = 10_000_000
MAX_K = 1000
MAX_PRECISION = 1 << 20
MAX_RANGE = 100_000
# rows of the Weyl grid, (2K + 1)^d, and of the block table, D^L
MAX_TABLE = 1 << 20
# a zero check evaluates n = 4^k (2m + 1) for k <= k_max, |m| <= m_max: |n|
# stays below 2^136, and at both caps a three-atom measure takes about 1.4 s
# (2-core Xeon)
MAX_ZERO_K = 64
MAX_ZERO_M = 100
# a map's exponent r scales it by D^-r; a normality run with r = [1, 64] at
# N = 10^4 takes 0.7 s (2-core Xeon)
MAX_EXPONENT = 64
# every scalar field; the rational case's float64 error bound grows with
# max|t_i| and at |D| = 2, |t_i| = 2^10 is about 2^-35, below its 2^-32 limit
MAX_SCALAR = 1 << 10
_exponents = _list_of(_at_least(1, MAX_EXPONENT), f"integers in [1, {MAX_EXPONENT}]")

_MAPS = Field("D", _matrices, REQUIRED, "list of matrices (one per map)")
_ALPHAS = Field("alpha", _vectors, REQUIRED, "list of scalar vectors (one per map)")
_X0 = Field("x0", _vector, ORIGIN, "scalar vector (a string in one dimension)")
_P = Field("P", _scalar_list, UNIFORM, "selection probabilities (rationals > 0 summing to 1, one per map)")
_STEPS = Field("N", _at_least(1, MAX_STEPS), 100000, f"steps (<= {MAX_STEPS})")
_K = Field("K", _at_least(1, MAX_K), 8, f"character range (<= {MAX_K}, (2K+1)^d <= {MAX_TABLE})")
_CONDITION = Field("condition", _choice("walk", "ifs"), "ifs", "'walk' or 'ifs'")

FIELDS: dict[str, list[Field]] = {
    "walk-sim": [_MAPS, _ALPHAS, _X0, _P, _STEPS, _K],
    "normality": [
        Field("D", _matrix, REQUIRED, "expanding integer; the digits are in base D^gcd(r)"),
        Field("r", _exponents, REQUIRED, f"integer exponents in [1, {MAX_EXPONENT}]"),
        Field("t", _scalar_list, REQUIRED, "scalar translations"),
        _P,
        Field("N", _at_least(1, MAX_STEPS), 10000, f"digits (<= {MAX_STEPS})"),
        Field("L", _at_least(1), 2, f"max block length (<= N, (D^gcd(r))^L <= {MAX_TABLE})"),
    ],
    "condition-check": [_CONDITION],
    "rational-case": [
        Field("D", _matrix, REQUIRED, f"integer with 2 <= |D| <= {MAX_TABLE}"),
        Field("t", _scalar_list, REQUIRED, f"scalars with rational differences (common denominator q <= {chains.MAX_STATES})"),
        _P, _STEPS, _K,
    ],
    "fourier": [
        Field("measures", _measures, REQUIRED, "{name: measure}, see 'measure fields'"),
        Field("dump_range", _at_least(0, MAX_RANGE), 32, f"CSV coefficient range (<= {MAX_RANGE})"),
        Field("tol", _positive_float, 1e-9, "product truncation tolerance (finite, > 0)"),
        Field("zero_checks", _zero_checks, [], "list of tables, see 'zero_checks fields'"),
        Field("haar_convolution", _list_of(_text, "measure names"), None, "[nameA, nameB] or null"),
        Field("haar_range", _at_least(1, MAX_RANGE), 1000, f"N for is-Haar check (<= {MAX_RANGE})"),
    ],
    "stationary-support": [
        Field("D", _list_of(_base, "integers"), REQUIRED, f"list of integers (2 <= |D_i| <= {MAX_TABLE})"),
        Field("alpha", _scalar_list, REQUIRED, f"scalars (q, the common denominator of the betas, <= {chains.MAX_STATES})"),
        _P,
    ],
    "rotation-case": [
        Field("D", _choice(None), None, "null: the maps are rotations x -> x + alpha"),
        _ALPHAS, _X0, _P,
        Field("control_q", _at_least(1, MAX_K), OPTIONAL, f"also report |S_N(q)| (<= {MAX_K})"),
        _STEPS, _K,
    ],
}
KINDS = tuple(FIELDS)
# condition-check takes the rows of its condition as well
CONDITION_FIELDS = {
    "walk": [_MAPS, _ALPHAS],
    "ifs": [
        Field("D", _matrix, REQUIRED, "matrix"),
        Field("r", _exponents, REQUIRED, f"exponents in [1, {MAX_EXPONENT}] (one per map)"),
        Field("t", _vectors, REQUIRED, "scalar vectors (one per map)"),
    ],
}
_SEED = Field("seed", _at_least(0), 0, f"PRNG seed ({PRNG_NAME}); `run --seed` overrides it")
COMMON = [
    Field("kind", _choice(*KINDS), REQUIRED, f"one of {list(KINDS)}"),
    _SEED,
    Field("irrationals", _symbols, [], "declared symbol names, e.g. ['sqrt2']; sqrtN, pi, e supported"),
    Field("precision", _precision, "auto", f"'auto' or explicit bits (>= 64, <= {MAX_PRECISION})"),
]
MEASURE_FIELDS = [
    Field("base", _base, REQUIRED, f"integer with 2 <= |base| <= {MAX_TABLE}"),
    Field("atoms", _scalar_list, REQUIRED, "rationals"),
    Field("weights", _scalar_list, UNIFORM, "rationals > 0 summing to 1"),
]
ZERO_CHECK_FIELDS = [
    Field("measure", _text, REQUIRED, "measure name"),
    Field("pattern", _choice("odd", "twice_odd"), REQUIRED, "index family"),
    Field("k_max", _at_least(0, MAX_ZERO_K), 5, f"largest k in 4^k (<= {MAX_ZERO_K})"),
    Field("m_max", _at_least(0, MAX_ZERO_M), 20, f"largest |m| (<= {MAX_ZERO_M})"),
]


def _weights(given: list[str] | None, count: int, field: str) -> list[str]:
    """One probability per map (or atom), uniform when not given; the
    library's rule (rationals > 0 summing to exactly 1) is checked here so
    that the refusal names the field."""
    if given is None:
        return [f"1/{count}"] * count
    if len(given) != count:
        raise _bad(field, f"expected a list of {count} probabilities")
    try:
        fractal._probabilities(_fractions(given), count)
    except (ValueError, ZeroDivisionError) as exc:
        raise _bad(field, f"{exc}, got {given}") from exc
    return given


def normalize_config(raw: dict) -> dict:
    """Validate and canonicalize a config by its kind's rows of `FIELDS`;
    parse(serialize(c)) == c holds."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kind = COMMON[0].parse(raw.get("kind"), "kind")
    rows = COMMON + FIELDS[kind]
    if kind == "condition-check":
        condition = raw.get("condition")
        condition = _CONDITION.default if condition is None else condition
        rows = rows + CONDITION_FIELDS[_CONDITION.parse(condition, "condition")]
    cfg = _table(raw, rows)

    # rules that span fields
    maps = cfg.get("alpha", cfg.get("t"))
    if cfg.get("D") is not None and "alpha" in cfg and len(cfg["D"]) != len(maps):
        raise ConfigError("fields 'D' and 'alpha': need one alpha per matrix", "alpha")
    if kind in ("walk-sim", "rotation-case", "condition-check"):
        matrices = [cfg["D"]] if cfg.get("condition") == "ifs" else cfg["D"] or []
        dim = len(matrices[0]) if matrices else 1
        if "x0" in cfg:
            cfg["x0"] = cfg["x0"] or ["0"] * dim
        vectors = {"D": matrices, "alpha": cfg.get("alpha", []), "t": cfg.get("t", [])}
        vectors["x0"] = [cfg["x0"]] if "x0" in cfg else []
        for name, entries in vectors.items():
            if any(len(v) != dim for v in entries):
                raise _bad(name, "dimension mismatch")
        if "K" in cfg and (2 * cfg["K"] + 1) ** dim > MAX_TABLE:
            raise _bad("K", f"the Weyl grid (2K+1)^{dim} must have <= {MAX_TABLE} frequencies")
    if "r" in cfg and len(cfg["r"]) != len(maps):
        raise _bad("r", f"expected {len(maps)} exponents, one per map")
    if kind == "condition-check" and len(maps) < 2:
        raise _bad("alpha" if "alpha" in cfg else "t", "need at least two maps")
    if "P" in cfg:
        cfg["P"] = _weights(cfg["P"], len(maps), "P")
    if kind in ("normality", "rational-case") and len(cfg["D"]) != 1:
        raise _bad("D", f"{kind} is one-dimensional")
    if kind == "normality" and cfg["D"][0][0] < 2:
        raise _bad("D", "normality digits need D >= 2")
    if kind == "rational-case":
        _base(cfg["D"][0][0], "D")
    if "L" in cfg and cfg["L"] > cfg["N"]:
        raise _bad("L", "must be <= N")
    if "L" in cfg:
        # the IFS runs on D^g, g = gcd(r), so its digits are in base D^g
        length = math.gcd(*cfg["r"]) * cfg["L"]
        if length > MAX_TABLE.bit_length() or cfg["D"][0][0] ** length > MAX_TABLE:
            raise _bad("L", f"the block table (D^gcd(r))^L must have <= {MAX_TABLE} rows")
    for name, m in cfg.get("measures", {}).items():
        m["weights"] = _weights(m["weights"], len(m["atoms"]), f"measures.{name}.weights")
        try:
            spectral.SelfSimilarSpec.create(m["base"], _fractions(m["atoms"]), _fractions(m["weights"]))
        except ValueError as exc:
            raise _bad(f"measures.{name}", str(exc)) from exc
    if any(check["measure"] not in cfg["measures"] for check in cfg.get("zero_checks", [])):
        raise _bad("zero_checks.measure", "unknown measure name")
    conv = cfg.get("haar_convolution")
    if conv is not None and (len(conv) != 2 or any(name not in cfg["measures"] for name in conv)):
        raise _bad("haar_convolution", "expected two measure names")
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


# rows per fractal.points_csv call: enough to amortise numpy's per-call
# cost, few enough that its temporary arrays stay in cache
_POINTS_CHUNK_ROWS = 2048


def _write_points_csv(path: Path, points: np.ndarray) -> None:
    """Write an (N, d) point array as header `n,x0,...` and one row per
    point: its 1-based index, then each coordinate as %.17g, CRLF line ends.

    The bytes are those of `_write_csv` with `_fmt` cells; fractal.points_csv
    formats the rows, a chunk at a time.
    """
    count, dim = points.shape
    with path.open("wb") as fh:
        fh.write(",".join(["n"] + [f"x{j}" for j in range(dim)]).encode() + b"\r\n")
        for start in range(0, count, _POINTS_CHUNK_ROWS):
            fh.write(fractal.points_csv(points[start : start + _POINTS_CHUNK_ROWS], start + 1))


def _dense_table(rows: Sequence[dict], n: int) -> list[list[str]]:
    """The sparse chain rows as a dense n x n table of str cells, "0" off
    the rows' keys; each distinct probability is formatted once."""
    text: dict = {}
    table = []
    for row in rows:
        line = ["0"] * n
        for j, x in row.items():
            line[j] = text.get(x) or text.setdefault(x, str(x))
        table.append(line)
    return table


def _discrepancy(sample: stats.OrbitSample, results: dict, sidecars: dict) -> None:
    """results.star_discrepancy and discrepancy.csv, the running star
    discrepancy whose last row is the whole sample."""
    rows = stats.running_discrepancy(sample)
    results["star_discrepancy"] = rows[-1][1]
    sidecars["discrepancy.csv"] = (["n", "star_discrepancy"], [[m, _fmt(d)] for m, d in rows])


def _weyl_table(ws: dict) -> dict[str, str]:
    return {",".join(map(str, k)): _fmt(v) for k, v in sorted(ws.items())}


# ---------------------------------------------------------------------------
# experiment kinds: cfg, rng -> (results, sidecars, precision bits); each
# sidecar is a CSV file name -> (header, rows), or an (N, d) point array


def _run_walk_like(cfg: dict, rng: np.random.Generator) -> tuple[dict, dict, int | None]:
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
    sample = fractal.walk_orbit_fixed(endos, x0, letters, precision_bits=precision)
    ws = stats.weyl_sums(sample, cfg["K"])
    results: dict = {
        "N": n_steps,
        "K": cfg["K"],
        "weyl": _weyl_table(ws),
        "max_weyl": max(ws.values()),
        "error_bound": sample.error_bound,
    }
    sidecars = {"weyl.csv": (["k", "abs_S_N"], results["weyl"].items()), "trajectory.csv": sample.points}
    if dim == 1:
        _discrepancy(sample, results, sidecars)
    if "control_q" in cfg:
        results["control_q"] = cfg["control_q"]
        results["control_char"] = stats.control_character(sample, cfg["control_q"])
    return results, sidecars, sample.precision_bits


def _run_normality(cfg: dict, rng: np.random.Generator) -> tuple[dict, dict, int | None]:
    basis = _basis_of(cfg)
    ifs = fractal.AffineIFS.create(
        cfg["D"], cfg["r"], [[s] for s in _scalars(cfg["t"], basis)],
        _fractions(cfg["P"]),
    )
    base = ifs.d_matrix.rows[0][0]
    count = cfg["N"]
    min_bits = 0 if cfg["precision"] == "auto" else cfg["precision"]
    digits, sample, word_len = stats.sample_digits(ifs, rng, count, min_bits)
    max_len = cfg["L"]
    freqs = stats.block_frequencies(digits, max_len)
    table, deviations = stats.block_table(freqs, base, max_len)
    results = {
        "N": count,
        "base": base,
        "word_length": word_len,
        "block_deviation": {str(k): v for k, v in deviations.items()},
        "max_block_deviation": max(deviations.values()),
    }
    rows = [["".join(map(str, block)), *map(_fmt, values)] for block, *values in table]
    sidecars = {"blocks.csv": (["block", "freq", "expected", "deviation"], rows)}
    _discrepancy(sample, results, sidecars)
    return results, sidecars, sample.precision_bits


def _run_condition_check(cfg: dict, rng) -> tuple[dict, dict, None]:
    basis = _basis_of(cfg)
    walk = cfg["condition"] == "walk"
    points = [TorusPoint(_scalars(vec, basis)) for vec in cfg["alpha" if walk else "t"]]
    try:
        if walk:
            verdict = groupcond.condition_walk([IntMatrix.from_rows(m) for m in cfg["D"]], points)
        else:
            verdict = groupcond.condition_ifs(IntMatrix.from_rows(cfg["D"]), cfg["r"], points)
    except ValueError as exc:
        # the config has one vector (and exponent) per map and at least two
        # maps, so what a condition refuses is D: not expanding, or not commuting
        raise _bad("D", str(exc)) from exc
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
    return results, {}, None


def _run_stationary_support(cfg: dict, rng) -> tuple[dict, dict, None]:
    alphas = _scalars(cfg["alpha"], _basis_of(cfg))
    fs = chains.build_finite_stationary(cfg["D"], alphas, _fractions(cfg["P"]))
    results = {
        "x0": str(fs.x0),
        "q": fs.q,
        "states": [str(a) for a in fs.a_values],
        "betas": [str(b) for b in fs.betas],
        "transition": _dense_table(fs.transition, fs.q),
        "stationary": [str(x) for x in fs.stationary],
        "invariance_exact": fs.support_is_invariant(),
        "stationary_exact": fs.stationary_is_exact(),
        "pushforward_stationary": fs.pushforward_is_stationary(),
    }
    rows = [[str(a), str(w)] for a, w in zip(fs.a_values, fs.stationary)]
    return results, {"stationary.csv": (["state", "weight"], rows)}, None


def _run_rational_case(cfg: dict, rng: np.random.Generator) -> tuple[dict, dict, int | None]:
    t_scalars = _scalars(cfg["t"], _basis_of(cfg))
    eta = chains.build_eta_chain(cfg["D"][0][0], t_scalars, _fractions(cfg["P"]))
    n_steps = cfg["N"]
    k_max = cfg["K"]
    sample, eta_idx = chains.rational_case_points(eta, rng, n_steps)
    state_rows, state_dev = eta.state_frequencies(eta_idx)
    # one pass of characters serves the Weyl sums, char_dev and chars.csv
    means = stats.character_means(sample, k_max)

    results = {
        "N": n_steps,
        "K": k_max,
        "q": eta.q,
        "states": [str(a) for a in eta.states],
        "stationary": [str(x) for x in eta.stationary],
        "transition": _dense_table(eta.transition, len(eta.states)),
        "state_freq_dev": state_dev,
        "weyl": _weyl_table({k: abs(v) for k, v in means.items()}),
    }
    rows = [[str(a), str(p), _fmt(f)] for a, p, f in state_rows]
    sidecars = {"states.csv": (["state", "stationary", "empirical"], rows)}
    if t_scalars[0].is_rational():  # then every t_i is, as t_i - t_1 is rational
        law = chains.limit_law_fourier(eta)
        table, results["char_dev"] = stats.fourier_table(means, law)
        rows = [
            [n, _fmt(pred.real), _fmt(pred.imag), _fmt(emp.real), _fmt(emp.imag), _fmt(diff)]
            for n, pred, emp, diff in table
        ]
        header = ["n", "predicted_re", "predicted_im", "empirical_re", "empirical_im", "abs_diff"]
        sidecars["chars.csv"] = (header, rows)
    else:
        results["char_dev"] = None
        results["note"] = "t_1 irrational: limit law not finitely computable"
    return results, sidecars, sample.precision_bits


def _run_fourier(cfg: dict, rng) -> tuple[dict, dict, None]:
    tol = cfg["tol"]
    specs = {
        name: spectral.SelfSimilarSpec.create(m["base"], _fractions(m["atoms"]), _fractions(m["weights"]))
        for name, m in cfg["measures"].items()
    }
    coeff_fns = {name: spec.coefficients(tol) for name, spec in specs.items()}
    sidecars = {}
    half = cfg["dump_range"]
    for name, fn in coeff_fns.items():
        # the value at -n is the conjugate of the one at n: each |n| is
        # formatted once, and -n flips the sign of a nonzero im text
        rows = [
            [n, "0", "0", "0", 1] if v.exact_zero else [n, _fmt(v.value.real), _fmt(v.value.imag), _fmt(v.error), 0]
            for n, v in enumerate(fn.table(range(-half, half + 1))[half:])
        ]
        mirror = [
            [-n, re, im if im in ("0", "-0") else im[1:] if im[0] == "-" else "-" + im, err, zero]
            for n, re, im, err, zero in rows[:0:-1]
        ]
        sidecars[f"coefficients_{name}.csv"] = (["n", "re", "im", "certified_error", "exact_zero"], mirror + rows)

    results: dict = {"zero_checks": []}
    for check in cfg["zero_checks"]:
        fn = coeff_fns[check["measure"]]
        ok = spectral.family_exact_zero(fn, check["pattern"], check["k_max"], check["m_max"])
        results["zero_checks"].append(
            {"measure": check["measure"], "pattern": check["pattern"], "all_exact_zero": ok}
        )
    if cfg["haar_convolution"]:
        a, b = (coeff_fns[name] for name in cfg["haar_convolution"])
        results["haar_up_to"] = spectral.is_haar_up_to(spectral.convolve(a, b), cfg["haar_range"])
        results["routing_consistent"] = spectral.routing_consistent(a, b, cfg["haar_range"])
        results["haar_range"] = cfg["haar_range"]
    results["diagnostics"] = {
        name: spectral.diagnostics(specs[name], fn, tol) for name, fn in coeff_fns.items()
    }
    return results, sidecars, None


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
    """Execute one experiment; returns the report, which is written to
    outdir with its sidecars once the experiment has succeeded."""
    cfg = normalize_config(raw_config)
    if seed_override is not None:
        cfg["seed"] = _SEED.parse(seed_override, "seed")
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    try:
        results, sidecars, precision = _RUNNERS[cfg["kind"]](cfg, rng)
    except chains.ChainSizeError as exc:  # q comes from the alphas or from the t
        raise _bad("alpha" if "alpha" in cfg else "t", str(exc)) from exc
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, table in sidecars.items():
        if isinstance(table, np.ndarray):
            _write_points_csv(outdir / name, table)
        else:
            _write_csv(outdir / name, *table)
    report = {
        "schema": REPORT_SCHEMA,
        "kind": cfg["kind"],
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "seed": cfg["seed"],
        "prng": PRNG_NAME,
        "precision_bits": precision,
        "results": results,
        "sidecars": list(sidecars),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    # one string and one write: json.dump would stream every token separately
    (outdir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report


def report_body(report: dict) -> str:
    """Canonical serialization of everything except the timestamp."""
    body = {k: v for k, v in report.items() if k != "timestamp"}
    return canonical_json(body)


# ---------------------------------------------------------------------------
# verification suites

# (suite, check, result field, comparator, limit, label, optional): the field
# is compared with the limit, or read as a pass/fail flag when the comparator
# is None; the label is formatted with the results; an optional check is
# skipped when its field is absent or null.
CHECKS = [
    ("walk-sim", "discrepancy", "star_discrepancy", "<=", 0.02, "D*", True),
    ("rotation-case", "discrepancy", "star_discrepancy", "<=", 0.02, "D*", True),
    ("rotation-case", "control", "control_char", ">=", 0.9, "|S_N({control_q})|", True),
    ("normality", "blocks", "max_block_deviation", "<=", 0.02, "max block deviation", False),
    ("normality", "discrepancy", "star_discrepancy", "<=", 0.03, "D*", False),
    ("rational-case", "state-frequencies", "state_freq_dev", "<=", 0.01, "max |freq - p|", False),
    ("rational-case", "characters", "char_dev", "<=", 0.03, "max |emp - predicted|", True),
    ("fourier", "haar", "haar_up_to", None, None, "Haar up to {haar_range}", True),
    ("fourier", "routing", "routing_consistent", None, None, "classify_index routing", True),
    ("stationary-support", "invariance", "invariance_exact", None, None, "h_i(A+x0) in A+x0", False),
    ("stationary-support", "stationary", "stationary_exact", None, None, "v P = v exactly", False),
    ("stationary-support", "pushforward", "pushforward_stationary", None, None,
     "sum_i P_i (h_i)_* nu = nu exactly", False),
]
_COMPARE = {"<=": operator.le, ">=": operator.ge}


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"check": name, "pass": bool(ok), "detail": detail}


def verify_report(report: dict, suite: str) -> list[dict]:
    """The suite's checks on a report; raises ConfigError on schema problems."""
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
    if suite not in KINDS:
        raise ConfigError(f"unknown suite {suite!r}")
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
    elif suite == "fourier":
        for zc in res["zero_checks"]:
            name = f"zeros-{zc['measure']}-{zc['pattern']}"
            checks.append(_check(name, zc["all_exact_zero"], "all family members exactly zero"))
    elif suite == "condition-check" and res["dense"]:
        checks.append(_check("dense", res["witness"] is None, "dense, no witness"))
    elif suite == "condition-check":
        checks.append(_check("witness", res["witness_valid"], f"witness {res['witness']}"))
    for row_suite, name, field, op, limit, label, optional in CHECKS:
        if row_suite != suite or (optional and res.get(field) is None):
            continue
        value, label = res[field], label.format(**res)
        if op is None:
            checks.append(_check(name, value, label))
        else:
            ok = _COMPARE[op](value, limit)
            checks.append(_check(name, ok, f"{label} = {value:.4f} ({op} {limit})"))
    return checks


# ---------------------------------------------------------------------------
# schema description


def _describe(f: Field) -> str:
    default = f.default if isinstance(f.default, _Default) else f"default: {json.dumps(f.default)}"
    return f"{f.doc}; {default}"


def _listed(rows: list[Field]) -> str:
    return ", ".join(f"{f.name} ({_describe(f)})" for f in rows)


SCHEMA_DOC = {
    "config": {
        **{f.name: _describe(f) for f in COMMON},
        "null": "a field given as null takes its default",
        "unknown fields": "refused",
        "scalar-syntax": "terms 'a/b' or 'a/b*NAME' joined by '+'/'-', e.g. '1/3 + 2/3*sqrt2'; "
        f"|value| <= {MAX_SCALAR}",
        "matrix-syntax": "row-major integer lists, [[2,0],[0,3]]; plain int means 1x1",
    },
    **{kind: {f.name: _describe(f) for f in rows} for kind, rows in FIELDS.items()},
    "report": {
        "schema": REPORT_SCHEMA,
        "determinism": "identical (config, seed) gives identical report except 'timestamp'",
        "sidecars": "CSV files listed in the report, written next to report.json",
        "transition": "stationary-support and rational-case: the dense transition table over "
        "'states', one row per state, entries as reduced-fraction strings ('0' for no move)",
        "trajectory.csv": "walk-sim and rotation-case: header 'n,x0,...,x{d-1}', one row "
        "per orbit point (1-based n, coordinates as %.17g), CRLF line ends",
        "fourier results.diagnostics": "per measure: coefficients evaluated, max_depth "
        "(deepest truncated product, null when every value was an exact zero), evaluator "
        "('float64-taylor': cos/sin of a double-double angle by Taylor polynomials, no libm)",
        "error.json": "batch runs only: a failed job's directory holds {field, message, exit} "
        "in place of report.json",
    },
}
SCHEMA_DOC["condition-check"].update({f"{c} fields": _listed(rows) for c, rows in CONDITION_FIELDS.items()})
SCHEMA_DOC["fourier"].update({"measure fields": _listed(MEASURE_FIELDS), "zero_checks fields": _listed(ZERO_CHECK_FIELDS)})


# ---------------------------------------------------------------------------
# entry point


def _run_job(raw, outdir: Path, seed: int | None, batch: bool) -> int:
    """Run one experiment and print its report path.  On failure print the
    error, write it to outdir/error.json when the job is part of a batch,
    and return its exit class: 2 for a bad config, 3 when a condition of the
    theory fails or no precision can certify the result."""
    try:
        run(raw, outdir, seed)
    except ConfigError as exc:
        error, code, field = exc, 2, exc.field
    except (chains.RationalityError, fractal.PrecisionExceededError, NearIntegerError) as exc:
        error, code, field = exc, 3, None
    except (ValueError, ArithmeticError) as exc:
        error, code, field = exc, 2, None
    else:
        print(outdir / "report.json")
        return 0
    print(f"{'condition violated' if code == 3 else 'config error'}: {error}", file=sys.stderr)
    if batch:
        outdir.mkdir(parents=True, exist_ok=True)
        record = {"field": field, "message": str(error), "exit": code}
        (outdir / "error.json").write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return code


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
        if not isinstance(loaded, list):
            return _run_job(loaded, args.outdir, args.seed, batch=False)
        codes = [
            _run_job(raw, args.outdir / f"experiment_{i}", args.seed, batch=True)
            for i, raw in enumerate(loaded)
        ]
        return max(codes, default=0)

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
