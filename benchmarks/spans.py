"""In-memory span tracer that times ppsg's layers from outside the library.

Each layer of ppsg calls the next through a name it looks up in its own
module's globals at call time (``ppsg.estimator.weight_multi``,
``ppsg.harness._trial_rng``, ...).  ``Tracer.instrument`` rebinds those
names, for the duration of one ``with`` block, to wrappers that record a
span (name, parent, operation, start, end, whether it returned), and puts
the original objects back on exit.  Nothing under ``src/`` is edited.

Spans are stored column-wise in ``array`` buffers so a long traced run stays
small; ``summarize`` turns them into the per-layer metrics and ``save``
writes them out.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name).  The attribute is the name the calling
# layer looks up; the span is named after the layer that owns the callee.
HOOKS = (
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "_trial_rng", "harness.trial_rng"),
    ("harness", "_wrap_event", "harness.wrap_event"),
    ("harness", "synthesize", "signal.synthesize"),
    ("harness", "phase_field", "basis.phase_field"),
    ("harness", "estimate", "estimator.estimate"),
    ("harness", "outlier_predicate", "analysis.outlier_predicate"),
    ("signal", "phase_field", "basis.phase_field"),
    ("signal", "validate_degree_set", "degrees.validate_degree_set"),
    ("estimator", "average", "estimator.average"),
    ("estimator", "weight_multi", "weights.weight_multi"),
    ("estimator", "phase_diff_multi", "signal.phase_diff_multi"),
    ("estimator", "binomial_field", "basis.binomial_field"),
    ("estimator", "validate_degree_set", "degrees.validate_degree_set"),
)

LAYERS = ("harness", "estimator", "signal", "weights", "basis", "degrees", "analysis")

# Spans whose per-operation total time is reported as ``<span>.total_s``.
TOTALS = (
    "estimator.average",
    "weights.weight_multi",
    "signal.phase_diff_multi",
    "basis.binomial_field",
    "harness.trial_rng",
    "harness.wrap_event",
    "signal.synthesize",
    "basis.phase_field",
    "degrees.validate_degree_set",
    "analysis.outlier_predicate",
)

PER_LAYER_UNITS = {
    **{f"{name}.total_s": "s" for name in TOTALS},
    "estimator.estimate.self_s": "s",
    "harness.run_trial.self_s": "s",
    "harness.run_trial.p50_us": "us",
    "weights.weight_multi.calls": "count",
    "signal.phase_diff_multi.bytes_computed": "B",
    "basis.binomial_field.calls_per_estimate": "calls/estimate",
    "weights.axis_cache.hits": "count",
    "weights.axis_cache.misses": "count",
    "basis.field_cache.hits": "count",
    "basis.field_cache.misses": "count",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}

COMPLEX_BYTES = 16


def phase_diff_bytes(window, k, lag=1) -> int:
    """Bytes written by ``phase_diff_multi``: one complex128 output array per
    composed lagged difference, each one lag shorter along its axis."""
    dims = list(window)
    taus = [int(t) for t in lag] if isinstance(lag, (tuple, list)) else [int(lag)] * len(dims)
    total = 0
    for d, (kd, td) in enumerate(zip(k, taus)):
        for _ in range(int(kd)):
            dims[d] -= td
            total += COMPLEX_BYTES * math.prod(dims)
    return total


class Tracer:
    """Records spans for calls routed through the rebound layer attributes."""

    def __init__(self, modules: dict) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.op = array("q")
        self.parent = array("q")
        self.code = array("q")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self._stack = [-1]
        self.current_op = -1
        self.bytes_computed: dict[int, int] = {}
        self.hooks = []
        self.missing = []
        for module_name, attr, span in HOOKS:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            count = self._count_phase_diff if span == "signal.phase_diff_multi" else None
            self.hooks.append((module, attr, original, self.wrap(span, original, count)))

    def _code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _count_phase_diff(self, args, kwargs) -> None:
        s, k = args[0], args[1]
        lag = args[2] if len(args) > 2 else kwargs.get("lag", 1)
        op = self.current_op
        self.bytes_computed[op] = self.bytes_computed.get(op, 0) + phase_diff_bytes(
            s.window, k, lag
        )

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so that each call records one span."""
        code = self._code_of(name)
        op_col, parent_col, code_col = self.op, self.parent, self.code
        start_col, end_col, ok_col = self.start, self.end, self.ok
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(code_col)
            op_col.append(tracer.current_op)
            parent_col.append(stack[-1])
            code_col.append(code)
            start_col.append(0.0)
            end_col.append(0.0)
            ok_col.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_col[sid] = t0
                end_col[sid] = t1
            ok_col[sid] = 1
            if count is not None:
                count(args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def instrument(self, op: int):
        """Rebind every hook for one traced operation; always restore."""
        self.current_op = op
        bound = []
        try:
            for module, attr, _original, wrapper in self.hooks:
                setattr(module, attr, wrapper)
                bound.append((module, attr, _original))
            yield
        finally:
            for module, attr, original in reversed(bound):
                setattr(module, attr, original)
            self.current_op = -1

    def not_restored(self) -> list[str]:
        """Hooked attributes that do not hold their original object."""
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original, _ in self.hooks
            if getattr(module, attr) is not original
        ]

    def summarize(self, n_ops: int, cache_deltas: list[dict]) -> dict:
        """Per-layer metrics over traced operations ``0 .. n_ops - 1``.

        Times are seconds per operation (median over operations); counts are
        means per operation, except ``<layer>.errors`` which are totals.
        """
        import numpy as np

        cols = self.columns()
        code, parent, op, ok = cols["code"], cols["parent"], cols["op"], cols["ok"]
        dur = cols["end"] - cols["start"]
        n = len(code)
        has_parent = parent >= 0
        own = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

        width = max(len(self.names), 1)
        key = op * width + code

        def per_op(values):
            return np.bincount(key, weights=values, minlength=n_ops * width).reshape(
                n_ops, width
            )

        total = per_op(dur)
        self_time = per_op(own)
        calls = per_op(np.ones(n))

        def column(table, name):
            if name not in self._codes:
                return np.zeros(n_ops)
            return table[:, self._codes[name]]

        out = {}
        for name in TOTALS:
            out[f"{name}.total_s"] = float(np.median(column(total, name)))
        out["estimator.estimate.self_s"] = float(np.median(column(self_time, "estimator.estimate")))
        out["harness.run_trial.self_s"] = float(np.median(column(self_time, "harness.run_trial")))
        trial_code = self._codes.get("harness.run_trial", -1)
        trial_durations = dur[code == trial_code]
        out["harness.run_trial.p50_us"] = (
            float(np.median(trial_durations)) * 1e6 if trial_durations.size else 0.0
        )
        out["weights.weight_multi.calls"] = float(np.mean(column(calls, "weights.weight_multi")))
        out["signal.phase_diff_multi.bytes_computed"] = statistics.fmean(
            self.bytes_computed.get(o, 0) for o in range(n_ops)
        )
        estimates = float(column(calls, "estimator.estimate").sum())
        binomial = float(column(calls, "basis.binomial_field").sum())
        out["basis.binomial_field.calls_per_estimate"] = binomial / estimates if estimates else 0.0
        for key_name in ("weights.axis_cache", "basis.field_cache"):
            for field in ("hits", "misses"):
                out[f"{key_name}.{field}"] = statistics.fmean(
                    d[key_name][field] for d in cache_deltas
                )
        failed_names = [self.names[c] for c in code[ok == 0]]
        for layer in LAYERS:
            out[f"{layer}.errors"] = sum(1 for s in failed_names if s.startswith(layer + "."))
        return out

    def columns(self) -> dict:
        """The span columns as numpy arrays; row i is span id i."""
        import numpy as np

        return {
            "op": np.array(self.op, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "code": np.array(self.code, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "ok": np.array(self.ok, dtype=np.int8),
        }

    def save(self, path) -> None:
        """Write every span, column-wise, to an ``.npz`` file."""
        import numpy as np

        np.savez(path, names=np.array(self.names, dtype=str), **self.columns())
