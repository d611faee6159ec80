"""Replaced routines of the walk-sim output path, kept as references.

`write_points_csv` is the row-by-row trajectory writer: `csv.writer` (excel
dialect: CRLF line ends, minimal quoting) fed one list of strings per point,
each coordinate formatted with `format(v, ".17g")`.  `cli._write_points_csv`
must write the same bytes (see test_output.py).

`character_means` is the Weyl grid before it was built from character
powers: the d = 1 power recurrence, whose values `stats.character_means`
must reproduce bit for bit, and one `np.exp` per pair +-k for d > 1 (see
test_stats.py).  `character_power_means` is the character-power pass as it
ran over the whole sample, e(x) and one running power held for all N points
and each mean one `np.mean`; `stats.character_means`, which runs over the
nodes of numpy's pairwise summation, must give its values bit for bit for
d = 2 and 3 (see test_stats.py).

`running_discrepancy` is the checkpoint loop before each prefix was sorted
afresh: it merged the new points into the last prefix's sorted buffer by a
stable sort, and `stats.running_discrepancy` must give the same rows bit for
bit (see test_stats.py).

`rational_case_points` is the rational case's point pass before it ran in
blocks: the moving tail sum and the points over whole N-float arrays, whose
points `chains._rational_case_points` must give bit for bit (see
test_chains.py).  Nothing in src/ imports this module.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from pathlib import Path

import numpy as np

from toruswalk import chains, fractal
from toruswalk.exactcore import IntMatrix, Scalar, TorusPoint, frac
from toruswalk.stats import (
    DISCREPANCY_CHECKPOINTS,
    OrbitSample,
    _checked_coordinates,
    _frequency_grid,
    _sorted_star_discrepancy,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_points_csv(path: Path, points: np.ndarray) -> None:
    dim = points.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [f"x{i}" for i in range(dim)])
        writer.writerows(
            [i + 1] + [_fmt(v) for v in row] for i, row in enumerate(points)
        )


def character_means(sample: OrbitSample, k_max: int) -> dict[tuple[int, ...], complex]:
    sample._require_accuracy()
    pts = sample.points
    out: dict[tuple[int, ...], complex] = {}
    if sample.dimension == 1:
        z = np.exp(2j * np.pi * pts[:, 0])
        power = np.ones_like(z)
        for k in range(1, k_max + 1):
            power *= z
            mean = complex(np.mean(power))
            out[(k,)] = mean
            out[(-k,)] = mean.conjugate()
        return out
    for k in _frequency_grid(k_max, sample.dimension):
        negated = tuple(-c for c in k)
        if negated in out:
            out[k] = out[negated].conjugate()
            continue
        phase = pts @ np.asarray(k, dtype=float)
        out[k] = complex(np.mean(np.exp(2j * np.pi * phase)))
    return out


def _power_means(steps, k_max, prefix, factor, out) -> None:
    j = len(prefix)
    last = j + 1 == len(steps)
    if not last:
        _power_means(steps, k_max, prefix + (0,), factor, out)
    elif any(prefix):
        out[prefix + (0,)] = complex(np.mean(factor))
    for sign, step in zip((1, -1), steps[j] if any(prefix) else steps[j][:1]):
        power = np.ones_like(step) if factor is None else factor.copy()
        for m in range(1, k_max + 1):
            power *= step
            if last:
                out[prefix + (sign * m,)] = complex(np.mean(power))
            else:
                _power_means(steps, k_max, prefix + (sign * m,), power, out)


def character_power_means(sample: OrbitSample, k_max: int) -> dict[tuple[int, ...], complex]:
    sample._require_accuracy()
    grid = _frequency_grid(k_max, sample.dimension)
    zs = [np.exp(2j * np.pi * x) for x in sample.points.T]
    steps = [(zs[0],)] + [(z, np.conj(z)) for z in zs[1:]]
    half: dict[tuple[int, ...], complex] = {}
    _power_means(steps, k_max, (), None, half)
    return {
        k: half[k] if k in half else half[tuple(-c for c in k)].conjugate() for k in grid
    }


def running_discrepancy(sample: OrbitSample) -> list[tuple[int, float]]:
    xs = _checked_coordinates(sample)
    ordered = xs.copy()
    rows = []
    done = 0
    for i in range(1, DISCREPANCY_CHECKPOINTS + 1):
        m = max(1, (sample.size * i) // DISCREPANCY_CHECKPOINTS)
        ordered[done:m].sort()
        ordered[:m].sort(kind="stable")
        done = m
        rows.append((m, _sorted_star_discrepancy(ordered[:m])))
    return rows


def rational_case_points(eta, letters: np.ndarray, n_steps: int) -> np.ndarray:
    tail_len = len(letters) - n_steps
    eta_idx = eta.walk(letters[:n_steps])
    indices = np.asarray(letters) - 1
    tarr = np.array([chains._float_and_error(s)[0] for s in eta.translations])[indices]
    weights = (1.0 / eta.d_value) ** np.arange(tail_len)
    tails = np.zeros(n_steps)
    for j in range(tail_len):
        tails += tarr[1 + j : 1 + j + n_steps] * weights[j]
    t1 = eta.translations[0]
    if t1.is_rational():
        c, preperiod, cycle = chains._alpha_orbit(eta.d_value, t1.rational_part)
        head = [float(frac(o - c)) for o in preperiod[:n_steps]]
        repeat = [float(frac(o - c)) for o in cycle]
        rest = n_steps - len(head)
        alphas = np.concatenate([head, np.tile(repeat, -(-rest // len(repeat)))[:rest]])
    else:
        c_scalar = t1 * Fraction(eta.d_value, eta.d_value - 1)
        endo = fractal.AffineEndo(IntMatrix.scalar(eta.d_value), (Scalar.rational(0, t1.basis),))
        orb = fractal.walk_orbit_fixed(
            [endo], TorusPoint([c_scalar]), np.ones(n_steps, dtype=np.int8)
        )
        alphas = (orb.points[:, 0] - chains._float_and_error(c_scalar)[0]) % 1.0
    state_floats = np.array([float(a) for a in eta.states])
    return (alphas + state_floats[eta_idx] + tails) % 1.0
