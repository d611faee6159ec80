"""The traced benchmark run (perfbench/spans.py) wraps library functions by
name, and a name it cannot find crashes every traced run: each must resolve."""

from __future__ import annotations

import importlib.util
import types
from pathlib import Path

from toruswalk import chains, cli, exactcore, fractal, groupcond, spectral, stats

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _spans()
    tw = types.SimpleNamespace(
        chains=chains, cli=cli, exactcore=exactcore, fractal=fractal,
        groupcond=groupcond, spectral=spectral, stats=stats,
    )
    for owner, attr, metric, _ in spans.targets(tw):
        assert callable(getattr(owner, attr, None)), f"{owner!r} has no function {attr!r}"
        assert metric in spans.LAYER_METRICS
    # the memo counter replaces CoefficientFunction.__call__ and reads _memo
    assert "__call__" in vars(spectral.CoefficientFunction)
    coeffs = spectral.CoefficientFunction.haar()
    coeffs(3)
    assert 3 in coeffs._memo
