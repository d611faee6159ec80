"""The certified inputs take no quadratic step: `math.isqrt` and `divmod` cost
O(n^2) on n-bit integers in CPython 3.11, so the square roots behind
`Scalar.fixed_point` go through `exactcore._sqrt_floor` and the coded prefix's
division by D^S through `exactcore._divmod`, which switch to Newton's
iteration above a measured size.  This test walks the AST of every module of
`src/toruswalk`: an `isqrt` call may stand only in the helper or in a
function of the allowlist, each there for a stated reason, and
`code_prefix_fixed` must hand its numerator to `_divmod`, never to `divmod`
or `//` directly."""

import ast
from pathlib import Path

import toruswalk

SRC = Path(toruswalk.__file__).parent

HELPER = {"exactcore._sqrt_floor", "exactcore._inverse_sqrt"}
ALLOWED_ISQRT = {
    "exactcore.resolve_evaluator": "perfect-square test of the integer N in a sqrtN name, "
    "a few digits long",
    "exactcore._rational_reconstruction": "one root of the modulus per call, next to a "
    "half-extended Euclidean loop that is quadratic anyway",
    "spectral._modulus_up": "root of a product of float squares, at most a few thousand "
    "bits, below SQRT_NEWTON_BITS",
}
# the numerator of code_prefix_fixed is built from the translations read here
NUMERATOR_NAME = "t_fixed"


def _functions(tree: ast.Module):
    """(qualified name, node) of every function, methods as Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _is_isqrt(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == "isqrt"
    return isinstance(func, ast.Name) and func.id == "isqrt"


def isqrt_calls(source: str, module: str) -> list[str]:
    """'module.function:line' of each isqrt call; 'module.<module>' outside
    any function."""
    tree = ast.parse(source)
    found = []
    inside = set()
    for name, fn in _functions(tree):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _is_isqrt(node):
                found.append(f"{module}.{name}:{node.lineno}")
                inside.add(id(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_isqrt(node) and id(node) not in inside:
            found.append(f"{module}.<module>:{node.lineno}")
    return found


def _reads(node: ast.AST, name: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))


def direct_numerator_divisions(fn: ast.FunctionDef) -> list[str]:
    """Each `divmod` call, and each `//` whose dividend reads the numerator's
    translations, in one function, as 'line: text'."""
    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "divmod":
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
            if _reads(node.left, NUMERATOR_NAME):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def _code_prefix(source: str) -> ast.FunctionDef:
    return dict(_functions(ast.parse(source)))["code_prefix_fixed"]


def test_isqrt_only_in_the_helper_and_the_allowlist():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += isqrt_calls(path.read_text(), path.stem)
    where = {call.split(":")[0] for call in found}
    assert where - HELPER - set(ALLOWED_ISQRT) == set(), found
    # a stale allowlist entry would let a later isqrt in that function pass unseen
    assert set(ALLOWED_ISQRT) <= where


def test_code_prefix_divides_through_the_helper():
    fn = _code_prefix((SRC / "fractal.py").read_text())
    assert direct_numerator_divisions(fn) == []
    calls = {n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "_divmod" in calls


def test_the_checks_see_the_builtins():
    source = (
        "import math\nfrom math import isqrt\n"
        "def f(n):\n    return math.isqrt(n)\n"
        "class C:\n    def g(self, n):\n        return isqrt(n)\n"
        "r = math.isqrt(4)\n"
    )
    assert isqrt_calls(source, "m") == ["m.f:4", "m.C.g:7", "m.<module>:8"]
    source = (
        "def code_prefix_fixed(t_fixed, u, denom):\n"
        "    v, rem = divmod(sum(x * y for x, y in zip(t_fixed, u)), denom)\n"
        "    w = sum(t_fixed) // denom\n"
        "    err = -(-3 * sum(u) // abs(denom))\n"
    )
    assert direct_numerator_divisions(_code_prefix(source)) == [
        "2: divmod(sum((x * y for x, y in zip(t_fixed, u))), denom)",
        "3: sum(t_fixed) // denom",
    ]
