"""`cli` parses configs and formats what the library returns; the arithmetic
behind a reported statistic lives in `stats`, `chains` and the other library
modules.  The CLI may use numpy only for its PRNG (`np.random.*`) and to
recognise point arrays (`np.ndarray`)."""

import ast
from pathlib import Path

from toruswalk import cli

ALLOWED = {"random", "ndarray"}


def numpy_uses(source: str) -> list[str]:
    """Each use of numpy outside np.random and np.ndarray, as 'line: text'."""
    tree = ast.parse(source)
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "np":
            use = parents[id(node)]
            if not isinstance(use, ast.Attribute):
                found.append(f"{node.lineno}: np")
            elif use.attr not in ALLOWED:
                found.append(f"{node.lineno}: {ast.unparse(use)}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.append(f"{node.lineno}: from {node.module} import ...")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name.startswith("numpy") and a.asname != "np"]
    return sorted(found, key=lambda use: int(use.split(":")[0]))


def test_cli_uses_numpy_only_for_its_prng_and_arrays():
    source = Path(cli.__file__).read_text()
    assert "import numpy as np" in source
    assert numpy_uses(source) == []


def test_the_check_sees_arithmetic():
    source = "import numpy as np\nimport numpy\nfrom numpy import mean\nrng = np.random.default_rng(0)\n"
    source += "ok = isinstance(rng, np.ndarray)\nz = np.exp(1j)\nm = np.mean([z])\nalias = np\n"
    assert numpy_uses(source) == [
        "2: import numpy",
        "3: from numpy import ...",
        "6: np.exp",
        "7: np.mean",
        "8: np",
    ]
