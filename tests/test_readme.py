"""README's examples run as written: the Python quick tour executes and the
example config passes the config checks, so a changed signature cannot leave
them stale."""

from __future__ import annotations

import json
import re
from pathlib import Path

from toruswalk.cli import normalize_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), flags=re.S)


def test_quick_tour_runs():
    (tour,) = _blocks("python")
    exec(compile(tour, str(README), "exec"), {})


def test_example_config_is_valid():
    (example,) = _blocks("json")
    cfg = normalize_config(json.loads(example))
    assert cfg["kind"] == "walk-sim"
