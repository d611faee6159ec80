"""Output oracle: checks each experiment's report against recorded values.

A report passes when

* ``cli.verify_report`` passes every check of its suite;
* every certified error bound it states is below 2^-32 and no larger than
  the recorded one;
* its seed-independent exact outputs (stationary vectors, transitions,
  density verdicts and witnesses, ``exact_zero`` columns, Haar and routing
  verdicts) equal the recorded ones, and sampled Fourier coefficients agree
  with the recorded ones within the two certified errors;
* for the default seed, digit-block frequencies equal the recorded ones and
  sampled orbit points agree within the two reports' certified bounds.

The recorded values live in ``expected.json`` and are regenerated with
``PYTHONPATH=src python3 perfbench/oracle.py --record`` from the repository
root.  Regenerate only on code whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

import workloads

EXPECTED_PATH = Path(__file__).with_name("expected.json")
BOUND_LIMIT = 2.0 ** -32
# Exact outputs whose JSON is longer than this are recorded as a digest.
_INLINE_CHARS = 2000
_POINT_SAMPLES = 16
_COEFF_STRIDE = 25
# Exact fields per kind, taken from report["results"].
_EXACT_FIELDS = {
    "stationary-support": ("x0", "q", "states", "betas", "transition", "stationary"),
    "rational-case": ("q", "states", "stationary", "transition"),
    "condition-check": ("dense", "witness", "witness_valid", "difference_set"),
    "fourier": ("zero_checks", "haar_up_to", "routing_consistent"),
}


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _pinned(value):
    text = _canonical(value)
    if len(text) <= _INLINE_CHARS:
        return value
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _torus_gap(a: float, b: float) -> float:
    gap = abs(a - b) % 1.0
    return min(gap, 1.0 - gap)


def _sampled_rows(path: Path, wanted: set[int]) -> dict[str, list[float]]:
    """Rows whose first column (the step n) is in `wanted`, as floats."""
    rows = {}
    with path.open() as fh:
        next(fh)
        for line in fh:
            n, _, rest = line.partition(",")
            if int(n) in wanted:
                rows[n] = [float(x) for x in rest.split(",")]
    return rows


def facts(outdir: Path) -> dict:
    """The oracle-relevant outputs of one experiment's output directory."""
    report = json.loads((outdir / "report.json").read_text())
    kind = report["kind"]
    results = report["results"]
    out: dict = {"kind": kind, "exact": {}, "error_bound": {}}
    for field in _EXACT_FIELDS.get(kind, ()):
        out["exact"][field] = _pinned(results.get(field))
    if kind in ("walk-sim", "rotation-case"):
        n_steps = results["N"]
        wanted = {max(1, n_steps * k // _POINT_SAMPLES) for k in range(1, _POINT_SAMPLES + 1)}
        out["error_bound"]["orbit"] = results["error_bound"]
        out["points"] = _sampled_rows(outdir / "trajectory.csv", wanted)
    elif kind == "normality":
        with (outdir / "blocks.csv").open(newline="") as fh:
            out["blocks"] = {row["block"]: row["freq"] for row in csv.DictReader(fh)}
    elif kind == "fourier":
        zeros, values = {}, {}
        for name in report["config"]["measures"]:
            with (outdir / f"coefficients_{name}.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            zeros[name] = "".join(row["exact_zero"] for row in rows)
            out["error_bound"][name] = max(float(row["certified_error"]) for row in rows)
            values[name] = {
                row["n"]: [float(row["re"]), float(row["im"]), float(row["certified_error"])]
                for row in rows
                if int(row["n"]) % _COEFF_STRIDE == 0
            }
        out["exact"]["exact_zero"] = _pinned(zeros)
        out["values"] = values
    return out


def _verify(cli, outdir: Path) -> list[str]:
    report = json.loads((outdir / "report.json").read_text())
    try:
        checks = cli.verify_report(report, report["kind"])
    except cli.ConfigError as exc:
        return [f"verify_report: {exc}"]
    return [f"verify {c['check']}: {c['detail']}" for c in checks if not c["pass"]]


def compare(found: dict, expected: dict, seed_matches: bool) -> list[str]:
    """Differences between an experiment's facts and the recorded facts."""
    problems = []
    if found["kind"] != expected["kind"]:
        return [f"kind {found['kind']!r} != recorded {expected['kind']!r}"]
    for field, value in expected["exact"].items():
        if found["exact"].get(field) != value:
            problems.append(f"exact output {field!r} differs from the recorded value")
    for name, recorded in expected["error_bound"].items():
        bound = found["error_bound"].get(name, math.inf)
        if not bound < BOUND_LIMIT:
            problems.append(f"certified bound {name!r} = {bound!r} is not below 2^-32")
        if bound > recorded:
            problems.append(f"certified bound {name!r} = {bound!r} > recorded {recorded!r}")
    for name, recorded in expected.get("values", {}).items():
        for n, (re, im, err) in recorded.items():
            got = found["values"].get(name, {}).get(n)
            if got is None or abs(complex(got[0], got[1]) - complex(re, im)) > err + got[2]:
                problems.append(f"coefficient {name}({n}) = {got} outside recorded {re}+{im}i +- {err}")
    if seed_matches:
        if found.get("blocks") != expected.get("blocks"):
            problems.append("digit-block frequencies differ from the recorded ones")
        if "points" in expected:
            tol = expected["error_bound"]["orbit"] + found["error_bound"].get("orbit", math.inf)
            for n, coords in expected["points"].items():
                got = found["points"].get(n)
                if got is None or any(_torus_gap(a, b) > tol for a, b in zip(got, coords)):
                    problems.append(f"orbit point {n} = {got} is not within {tol!r} of {coords}")
    return problems


def check(cli, name: str, outdir: Path, expected: dict, seed: int) -> tuple[list[str], dict]:
    """Every oracle failure of experiment `name` written to `outdir`, and the
    certified error bounds its report states."""
    if name not in expected:
        return [f"{name}: no recorded values"], {}
    try:
        found = facts(outdir)
        problems = _verify(cli, outdir)
        problems += compare(found, expected[name], seed == workloads.DEFAULT_SEED)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"{name}: unreadable output: {exc!r}"], {}
    return [f"{name}: {p}" for p in problems], found["error_bound"]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def record(root: Path) -> dict:
    """Run every experiment at the default seed and collect its facts."""
    from toruswalk import cli

    scratch = root / ".perfbench_out" / "record"
    recorded = {}
    for workload in workloads.WORKLOADS:
        for name, cfg in workloads.experiments(workload, workloads.DEFAULT_SEED).items():
            outdir = scratch / name
            cfg_path = scratch / f"{name}.json"
            outdir.mkdir(parents=True, exist_ok=True)
            cfg_path.write_text(json.dumps(cfg))
            if cli.main(["run", str(cfg_path), "-o", str(outdir)]) != 0:
                raise SystemExit(f"{name}: toruswalk run failed")
            failures = _verify(cli, outdir)
            if failures:
                raise SystemExit(f"{name}: {failures}")
            recorded[name] = facts(outdir)
    shutil.rmtree(scratch)
    return recorded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    if not args.record:
        parser.print_help()
        return 2
    recorded = record(Path(__file__).resolve().parent.parent)
    EXPECTED_PATH.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(recorded)} experiments to {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
