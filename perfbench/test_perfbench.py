"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need the toruswalk sources under ``src`` and take about ten seconds.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from toruswalk import cli  # noqa: E402

SCRATCH = ROOT / ".perfbench_out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_experiment(name: str, workload: str) -> Path:
    """Run one benchmark experiment at the default seed; its output directory."""
    cfg = workloads.experiments(workload, workloads.DEFAULT_SEED)[name]
    outdir = SCRATCH / name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    cfg_path = outdir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    if cli.main(["run", str(cfg_path), "-o", str(outdir)]) != 0:
        raise AssertionError(f"{name}: toruswalk run failed")
    return outdir


def check(name: str, outdir: Path) -> list[str]:
    problems, _ = oracle.check(cli, name, outdir, oracle.load_expected(), workloads.DEFAULT_SEED)
    return problems


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class OracleTest(unittest.TestCase):
    def test_rejects_flipped_exact_zero_flag(self):
        outdir = run_experiment("fourier-R250", "fourier")
        self.assertEqual(check("fourier-R250", outdir), [])
        path = outdir / "coefficients_mu0.csv"
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        row = next(r for r in rows[1:] if r[0] == "3")
        row[4] = "0" if row[4] == "1" else "1"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        problems = check("fourier-R250", outdir)
        self.assertTrue(any("exact_zero" in p for p in problems), problems)

    def test_rejects_loosened_error_bound(self):
        outdir = run_experiment("rotation-N100k", "walk")
        self.assertEqual(check("rotation-N100k", outdir), [])
        report_path = outdir / "report.json"
        report = json.loads(report_path.read_text())
        report["results"]["error_bound"] *= 2
        report_path.write_text(json.dumps(report))
        problems = check("rotation-N100k", outdir)
        self.assertTrue(any("certified bound" in p for p in problems), problems)

    def test_rejects_changed_stationary_vector(self):
        found = oracle.load_expected()["rational-N50k"]
        changed = json.loads(json.dumps(found))
        changed["exact"]["stationary"] = ["1/3", "2/3"]
        self.assertTrue(oracle.compare(changed, found, seed_matches=False))


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
        faster = [v * 0.8 for v in parent]
        slower = [v * 1.2 for v in parent]
        noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]

        def verdict(change, base=parent, bound=0.1):
            return compare.verdict(base, change, list(zip(base, change)), "lower", bound)[0]

        self.assertEqual(verdict(faster), "better")
        self.assertEqual(verdict(slower), "worse")
        self.assertEqual(verdict(parent), "unchanged")
        self.assertEqual(verdict(noisy[::-1], base=noisy), "unresolved")
        self.assertEqual(verdict(slower, bound=None), "worse")


class SmokeTest(unittest.TestCase):
    def _metrics(self, trace: int) -> dict:
        proc = bench("--workload", "digits", "--seed", "0", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        return result["metrics"]

    def test_every_end_to_end_metric_reported(self):
        metrics = self._metrics(trace=0)
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["end_to_end"]})
        for m in SPEC["end_to_end"]:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertGreater(metrics[m["name"]]["value"], 0)

    def test_every_per_layer_metric_reported(self):
        metrics = self._metrics(trace=1)
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["per_layer"]})
        self.assertGreater(metrics["fractal.code_s"]["value"], 0)

    def test_fails_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "walk", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
