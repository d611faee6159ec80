"""Layered benchmark for toruswalk.

Run from the repository root:

    python3 perfbench/run.py --workload walk --seed 0 --seconds 20 --trace 0

Each run starts one fresh workload process (child.py) that repeats the
workload's experiments through ``toruswalk.cli.main(["run", ...])`` for
``--seconds`` seconds and checks every report with the oracle.  With
``--trace 0`` the run reports the end-to-end metrics; set-up time is measured
in separate fresh interpreters first.  With ``--trace 1`` the first half of
the time runs untraced and the second half traced, and the run reports the
per-layer metrics plus the tracing overhead; the spans go to
``.perfbench_out/spans-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics as a table, with the failure fraction, the largest
certified error (log2) and the environment.  ``--record FILE`` also appends
the run, with its environment, to a JSON-lines file that compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from compare import quartiles

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench_out"
SETUP_RUNS = 11
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TORUSWALK_WORKERS", None)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed string hashing, so set iteration order repeats from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """Starts child.py processes and enforces the run's time limit."""

    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.outdir = SCRATCH / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.env = child_env()
        self.started = 0

    def run(self, *extra: str) -> tuple[int, str, str]:
        # every process writes into a directory of its own (see child.Runner)
        self.started += 1
        cmd = [
            sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
            "--outdir", str(self.outdir / f"process{self.started}"),
            "--workload", self.args.workload, "--seed", str(self.args.seed), *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise SystemExit("time limit reached before the workload finished")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise SystemExit("workload process exceeded the time limit") from None
        return proc.returncode, proc.stdout, proc.stderr

    def setup_times(self) -> list[float]:
        """Seconds for a fresh interpreter to import toruswalk and run one tiny
        experiment per kind; the first, untimed, run fills the file caches."""
        times = []
        for i in range(SETUP_RUNS + 1):
            start = time.perf_counter()
            code, out, err = self.run("--setup-only")
            elapsed = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"set-up run failed ({code}):\n{err}{out}")
            if i:
                times.append(elapsed)
        return times

    def workload(self) -> dict:
        spans_path = SCRATCH / f"spans-{self.args.workload}-seed{self.args.seed}.json"
        code, out, err = self.run(
            "--seconds", str(self.args.seconds), "--trace", str(self.args.trace),
            "--spans", str(spans_path),
        )
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            raise SystemExit(f"workload process failed ({code}):\n{err}")
        return json.loads(lines[-1])


def end_to_end(workload: str, raw: dict, setup: list[float]) -> dict:
    small, large = workloads.WORKLOADS[workload]["scaling"]
    # both sizes run in the same repetition, so a slow spell of the machine
    # moves numerator and denominator together
    exponents = [math.log2(rep["times"][large] / rep["times"][small]) for rep in raw["reps"]]
    return {
        "wall_s": (statistics.median(rep["wall"] for rep in raw["reps"]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "n_exponent": (statistics.median(exponents), "1"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(raw: dict) -> dict:
    out = {
        metric: (statistics.median(rep[metric] for rep in raw["layers"]), unit)
        for metric, unit in spans.LAYER_METRICS.items()
    }
    plain = statistics.median(rep["wall"] for rep in raw["reps"])
    traced = statistics.median(rep["wall"] for rep in raw["traced_reps"])
    out["trace.overhead_s"] = (traced - plain, "s")
    return out


def print_table(args, raw: dict, metrics: dict, setup: list[float]) -> None:
    reps = raw["traced_reps"] if args.trace else raw["reps"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  repetitions {len(reps)}")
    spread = {"wall_s": [rep["wall"] for rep in raw["reps"]], "setup_s": setup}
    for name, (value, unit) in metrics.items():
        line = f"  {name:26s} {value:14.6g} {unit}"
        if name in spread and spread[name]:
            q1, _, q3 = quartiles(spread[name])
            line += f"   (median of {len(spread[name])}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    if raw["max_error"] > 0:  # walk and fourier reports state certified bounds
        print(f"  {'max_err_log2':26s} {math.log2(raw['max_error']):14.6g} log2")
    print(f"  {'fail_frac':26s} {raw['failed'] / raw['attempted']:14.6g} ratio"
          f"   ({raw['failed']} of {raw['attempted']} experiments)")
    for failure in raw["failures"]:
        print(f"  FAIL {failure}")
    print("environment " + json.dumps(raw["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the run to this JSON-lines file")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "toruswalk" / "__init__.py").is_file():
        print(f"no toruswalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    child = Child(args, deadline)
    try:
        setup = [] if args.trace else child.setup_times()
        raw = child.workload()
    finally:
        shutil.rmtree(child.outdir, ignore_errors=True)
    metrics = per_layer(raw) if args.trace else end_to_end(args.workload, raw, setup)

    print_table(args, raw, metrics, setup)
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record:
        entry = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": raw["env"], "result": result,
        }
        with args.record.open("a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
