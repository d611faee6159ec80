"""The rounding term of `spectral`'s certified errors rests on a derivation
that assumes nothing of libm: cos and sin come from Taylor polynomials of
separately rounded numpy operations.  The module must therefore call no
`math.cos`, `math.sin`, `np.cos`, `np.sin` or `np.exp`, and use no `cmath`."""

import ast
from pathlib import Path

from toruswalk import spectral

FORBIDDEN = {"cos", "sin", "exp"}
MODULES = {"math": {"cos", "sin"}, "np": FORBIDDEN, "numpy": FORBIDDEN}


def libm_uses(source: str) -> list[str]:
    """Each use of a forbidden function or of cmath, as 'line: text'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr in MODULES.get(node.value.id, ()):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Name) and node.id == "cmath":
            found.append(f"{node.lineno}: cmath")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name == "cmath"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {a.name for a in node.names}
            if module == "cmath" or (module in ("math", "numpy") and names & (FORBIDDEN | {"*"})):
                found.append(f"{node.lineno}: from {module} import ...")
    return sorted(found, key=lambda use: int(use.split(":")[0]))


def test_spectral_calls_no_libm_trigonometry():
    assert libm_uses(Path(spectral.__file__).read_text()) == []


def test_the_check_sees_libm():
    source = "import math\nimport cmath\nfrom numpy import sin\nimport numpy as np\n"
    source += "a = math.cos(1.0) + math.expm1(1.0)\nb = np.exp(1j) + np.sqrt(2.0)\nc = cmath.pi\n"
    assert libm_uses(source) == ["2: import cmath", "3: from numpy import ...", "5: math.cos", "6: np.exp", "7: cmath"]
