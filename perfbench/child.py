"""One workload process: runs a workload's experiments repeatedly through
``toruswalk.cli.main(["run", ...])``, checks every report with the oracle,
and prints the raw measurements as one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS thread count pinned to 1.  Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import types
from collections import Counter
from pathlib import Path

import oracle
import spans
import workloads


def _import_toruswalk(root: Path):
    """The toruswalk modules, refusing any copy but the checkout's own."""
    from toruswalk import chains, cli, exactcore, fractal, groupcond, spectral, stats

    src = (root / "src").resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"toruswalk imported from {cli.__file__}, not from {src}")
    return types.SimpleNamespace(
        chains=chains, cli=cli, exactcore=exactcore, fractal=fractal,
        groupcond=groupcond, spectral=spectral, stats=stats,
    )


class Runner:
    """Runs experiments into a scratch directory and checks their outputs."""

    def __init__(self, tw, outdir: Path, configs: dict[str, dict], seed: int, expected):
        self.tw = tw
        self.outdir = outdir
        self.seed = seed
        self.expected = expected
        self.paths = {}
        for name, cfg in configs.items():
            path = outdir / f"{name}.json"
            path.write_text(json.dumps(cfg))
            self.paths[name] = path
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.max_error = 0.0
        self.repetition = 0

    def next_repetition(self) -> None:
        """Delete the last repetition's outputs.  Each repetition writes into a
        fresh directory: rewriting existing files costs ext4 a flush per file
        and makes timings depend on the disk."""
        shutil.rmtree(self.outdir / f"rep{self.repetition}", ignore_errors=True)
        self.repetition += 1

    def run(self, name: str) -> tuple[float, int]:
        """Seconds to the report of one experiment, and the bytes it wrote."""
        expdir = self.outdir / f"rep{self.repetition}" / name
        argv = ["run", str(self.paths[name]), "-o", str(expdir)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.tw.cli.main(argv)
        except Exception as exc:  # a crash is one failed experiment
            code = repr(exc)
        elapsed = time.perf_counter() - start
        if code != 0:
            problems = [f"{name}: toruswalk run exited with {code}"]
        elif self.expected is not None:
            problems, bounds = oracle.check(self.tw.cli, name, expdir, self.expected, self.seed)
            self.max_error = max([self.max_error, *bounds.values()])
        else:
            problems = []
        if problems:
            self.failed += 1
            self.failures += problems
            return elapsed, 0
        return elapsed, sum(p.stat().st_size for p in expdir.iterdir())


def _repeat(runner: Runner, names, seconds: float, on_rep=None) -> list[dict]:
    """Repetitions of all `names` until the next one would overrun `seconds`."""
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        times, written = {}, 0
        for name in names:
            times[name], size = runner.run(name)
            written += size
        reps.append({"wall": sum(times.values()), "times": times, "bytes": written})
        if on_rep is not None:
            on_rep(reps[-1])
        runner.next_repetition()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            return reps


def _environment() -> dict:
    # imported here so that the timed set-up processes do not load them
    import platform
    from importlib import metadata

    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    for package in ("numpy", "scipy", "mpmath"):
        env[package] = metadata.version(package)
    env["cpu"] = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tw = _import_toruswalk(args.root)
    args.outdir.mkdir(parents=True, exist_ok=True)
    setup = workloads.setup_experiments(args.workload, args.seed)
    warmup = Runner(tw, args.outdir, setup, args.seed, expected=None)
    for name in setup:
        warmup.run(name)
    if warmup.failures or args.setup_only:
        print(json.dumps({"failures": warmup.failures}))
        return 1 if warmup.failures else 0

    configs = workloads.experiments(args.workload, args.seed)
    runner = Runner(tw, args.outdir, configs, args.seed, oracle.load_expected())
    names = list(configs)
    if args.trace:
        plain = _repeat(runner, names, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install(tw)
        layers = []
        first_span = 0

        def collect(rep):
            nonlocal first_span
            tracer.counts[spans.BYTES_OUT] = rep["bytes"]
            layers.append(tracer.layer_metrics(first_span, Counter(tracer.counts)))
            first_span = len(tracer.spans)
            tracer.counts.clear()

        traced = _repeat(runner, names, args.seconds / 2, collect)
        tracer.restore()
        if args.spans:
            tracer.write(args.spans)
        result = {"reps": plain, "traced_reps": traced, "layers": layers}
    else:
        result = {"reps": _repeat(runner, names, args.seconds)}
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures[:20],
        max_error=runner.max_error,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        env=_environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
