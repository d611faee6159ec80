"""What every script in bench/ shares: the alternating timer, the log-log growth
fit, the environment block of a record, the JSON write and the loader of an
older tree's package.

The scripts run as ``python3 bench/<script>.py``, so this directory is on
their import path.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def alternate_seconds(fns, repeats: int) -> list[list[float]]:
    """Seconds of each function over `repeats` runs; the runs of the
    functions alternate, so that a change of machine load reaches all of
    them alike."""
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, spent in zip(fns, times):
            start = time.perf_counter()
            fn()
            spent.append(time.perf_counter() - start)
    return times


def median_seconds(fns, repeats: int) -> list[float]:
    """Median of alternate_seconds for each function."""
    return [statistics.median(spent) for spent in alternate_seconds(fns, repeats)]


def growth_exponent(rows: list[dict], size: str, seconds: str) -> float:
    """Least-squares slope of log(row[seconds]) against log(row[size])."""
    x = np.log([r[size] for r in rows])
    y = np.log([r[seconds] for r in rows])
    return float(np.polyfit(x, y, 1)[0])


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def write_json(path, record: dict) -> None:
    Path(path).write_text(json.dumps(record, indent=2) + "\n")


def load_package(src: str):
    """The toruswalk package under `src` (an older tree's `src`), imported as
    `toruswalk_before` so that it loads next to the one on the import path."""
    root = Path(src).resolve() / "toruswalk"
    spec = importlib.util.spec_from_file_location(
        "toruswalk_before", root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package
