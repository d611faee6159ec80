"""Span recorder for the traced benchmark run.

The tracer replaces public functions of the toruswalk modules with wrappers
that record a span (name, start, end, parent) and per-layer counts.  This
works because ``cli`` calls the library through its module objects
(``fractal.walk_orbit_fixed``) and calls inside a module go through the
module's globals.  Names imported with ``from .exactcore import ...`` are
wrapped at the class (``Scalar.evaluate``) or at each importing module's
binding (``fractal.is_expanding``).

Spans stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover; each wrapped function is charged to
one per-layer metric.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

# metric -> unit, in report order.  Times are self times in seconds.
LAYER_METRICS = {
    "exactcore.eval_s": "s",
    "exactcore.eval_calls": "count",
    "exactcore.eval_bits": "bits",
    "exactcore.norm_s": "s",
    "fractal.orbit_s": "s",
    "fractal.orbit_steps": "count",
    "fractal.orbit_bits": "bits",
    "fractal.code_s": "s",
    "fractal.sample_s": "s",
    "stats.digits_s": "s",
    "stats.weyl_s": "s",
    "stats.weyl_terms": "count",
    "stats.disc_s": "s",
    "stats.blocks_s": "s",
    "spectral.coeff_s": "s",
    "spectral.coeff_calls": "count",
    "spectral.memo_hit_ratio": "ratio",
    "spectral.exact_zero_frac": "ratio",
    "chains.stationary_s": "s",
    "chains.build_s": "s",
    "chains.states": "count",
    "groupcond.dense_s": "s",
    "groupcond.dense_calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
}
# Counted by the caller, which sees the files each experiment writes.
BYTES_OUT = "cli.bytes_out"


def _count_eval(counts, args, kwargs, result):
    counts["exactcore.eval_calls"] += 1
    counts["exactcore.eval_bits"] += args[1] if len(args) > 1 else kwargs["p"]


def _count_orbit(counts, args, kwargs, result):
    counts["fractal.orbit_steps"] += len(result.points)
    counts["fractal.orbit_bits"] += result.precision_bits


def _count_weyl(counts, args, kwargs, result):
    counts["stats.weyl_terms"] += len(result) * args[0].size


def _count_coeff(counts, args, kwargs, result):
    counts["spectral.coeff_calls"] += 1
    counts["coeff_zeros"] += result.exact_zero


def _count_states(counts, args, kwargs, result):
    counts["chains.states"] += len(result.stationary)


def _count_dense(counts, args, kwargs, result):
    counts["groupcond.dense_calls"] += 1


def targets(tw) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, metric, counter) for every wrapped function.

    `tw` is a namespace holding the toruswalk modules as attributes.
    """
    return [
        (tw.exactcore.Scalar, "evaluate", "exactcore.eval_s", _count_eval),
        (tw.exactcore, "is_expanding", "exactcore.norm_s", None),
        (tw.exactcore, "adapted_norm", "exactcore.norm_s", None),
        (tw.fractal, "is_expanding", "exactcore.norm_s", None),
        (tw.fractal, "adapted_norm", "exactcore.norm_s", None),
        (tw.groupcond, "is_expanding", "exactcore.norm_s", None),
        (tw.fractal, "walk_orbit_fixed", "fractal.orbit_s", _count_orbit),
        (tw.fractal, "code_prefix_fixed", "fractal.code_s", None),
        (tw.fractal, "sample_word", "fractal.sample_s", None),
        (tw.fractal, "walk_letter_stream", "fractal.sample_s", None),
        (tw.stats, "digits_from_fixed", "stats.digits_s", None),
        (tw.stats, "weyl_sums", "stats.weyl_s", _count_weyl),
        (tw.stats, "star_discrepancy_1d", "stats.disc_s", None),
        (tw.stats, "block_frequencies", "stats.blocks_s", None),
        (tw.spectral, "fourier_selfsimilar", "spectral.coeff_s", _count_coeff),
        (tw.spectral, "fourier_discrete", "spectral.coeff_s", _count_coeff),
        (tw.chains, "stationary_distribution", "chains.stationary_s", None),
        (tw.chains, "build_finite_stationary", "chains.build_s", _count_states),
        (tw.chains, "build_eta_chain", "chains.build_s", _count_states),
        (tw.groupcond, "is_dense", "groupcond.dense_s", _count_dense),
        (tw.cli, "run", "cli.self_s", None),
    ]


class Tracer:
    """Records spans around wrapped functions until `restore` is called."""

    def __init__(self):
        # [name, metric, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, metric: str, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, metric, clock(), None, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, tw) -> None:
        for owner, attr, metric, counter in targets(tw):
            original = getattr(owner, attr)
            name = f"{getattr(owner, '__name__', owner)}.{attr}".removeprefix("toruswalk.")
            setattr(owner, attr, self._wrap(original, name, metric, counter))
            self._undo.append((owner, attr, original))
        self._install_memo_counter(tw.spectral.CoefficientFunction)

    def _install_memo_counter(self, cls) -> None:
        original = cls.__call__
        counts = self.counts

        def __call__(coeffs, n):
            counts["memo_calls"] += 1
            counts["memo_hits"] += n in coeffs._memo
            return original(coeffs, n)

        cls.__call__ = __call__
        self._undo.append((cls, "__call__", original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self, first_span: int, counts: Counter) -> dict[str, float]:
        """Per-layer metrics over spans[first_span:] and the given counts."""
        out = {m: 0.0 for m, unit in LAYER_METRICS.items() if unit == "s"}
        covered: dict[int, float] = {}
        window = self.spans[first_span:]
        for name, metric, start, end, parent in window:
            if parent >= first_span:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        for offset, (name, metric, start, end, parent) in enumerate(window):
            out[metric] += (end - start) - covered.get(first_span + offset, 0.0)
        for metric, unit in LAYER_METRICS.items():
            if unit in ("count", "bits", "bytes"):
                out[metric] = counts[metric]
        calls = counts["memo_calls"]
        out["spectral.memo_hit_ratio"] = counts["memo_hits"] / calls if calls else 0.0
        coeffs = counts["spectral.coeff_calls"]
        out["spectral.exact_zero_frac"] = counts["coeff_zeros"] / coeffs if coeffs else 0.0
        return out

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent index]."""
        rows = [[name, start, end, parent] for name, _, start, end, parent in self.spans]
        path.write_text(json.dumps({"clock": "time.perf_counter", "spans": rows}))
