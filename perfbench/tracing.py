"""Span tracing of heatlab's public functions, installed from outside.

`Tracer.install()` replaces each traced function in every loaded heatlab
namespace that binds it (modules bind names with `from .x import y`, so
patching the defining module alone lets those calls escape), plus the suite
registry.  Spans live in memory; `summary()` folds them into per-layer
totals: calls, inclusive and self seconds, and per-function extras.
Self time is a span's duration minus the time its child spans cover; a
span's parent is the innermost open span on the same thread, so work that
heatlab hands to its own thread pool counts as self time of a root span.
"""

from __future__ import annotations

import os
import sys
import threading
import time

# (module, function) pairs named by the per-layer metrics
TRACED = (
    ("oracle", "h2_log"),
    ("oracle", "fd_time_derivative"),
    ("oracle", "radial_gradient"),
    ("oracle", "h3_log"),
    ("oracle", "quotient_kernel"),
    ("envelope", "two_grid_fit"),
    ("envelope", "grigoryan_bound_exact_h3"),
    ("envelope", "recurrence_grid"),
    ("envelope", "li_yau_gap"),
    ("lattice", "enumerate_orbit"),
    ("lattice", "critical_exponent"),
    ("lattice", "poincare_series"),
    ("lattice", "theorem2_rhs_log"),
    ("lpthresholds", "riesz_kernel_decay"),
    ("lpthresholds", "heat_verdict"),
    ("lpthresholds", "st_norm_certificate"),
    ("rootspace", "build_real_hyperbolic"),
    ("rootspace", "admissible_alpha_triple"),
    ("cli", "emit_csv"),
)


def _extra_for(name: str):
    """Per-function quantity beyond calls and time, read off a call."""
    if name == "oracle.fd_time_derivative":
        return "useful", lambda args, kwargs, result: int(result.precision_ok)
    if name == "lattice.enumerate_orbit":
        return "points", lambda args, kwargs, result: len(result)
    if name == "cli.emit_csv":
        return "bytes", lambda args, kwargs, result: os.path.getsize(
            kwargs.get("path", args[1] if len(args) > 1 else ""))
    return None


class Tracer:
    """Wrappers that record one span per call: (id, parent id, name, start,
    end).  The parent is the innermost open span on the calling thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.extras: dict[str, dict[str, int]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        extra = _extra_for(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[span_id] = (span_id, parent, name, start, end)
            if extra is not None:
                key, count = extra[0], extra[1](args, kwargs, result)
                with tracer._lock:
                    row = tracer.extras.setdefault(name, {})
                    row[key] = row.get(key, 0) + count
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name calls, inclusive seconds and self seconds, plus extras."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[1] >= 0:
                child_time[span[1]] += span[4] - span[3]
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span is None:
                continue
            row = out.setdefault(span[2], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            duration = span[4] - span[3]
            row["calls"] += 1
            row["incl_s"] += duration
            row["self_s"] += duration - child_time[span[0]]
        for name, extra in self.extras.items():
            out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0}).update(extra)
        return out

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        import heatlab.cli  # noqa: F401  (loads every traced module)
        import heatlab.suites as suites

        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == "heatlab" or key.startswith("heatlab."))]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"heatlab.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original)
            for ns in namespaces:
                if getattr(ns, func_name, None) is original:
                    self._restore.append((ns, func_name, original))
                    setattr(ns, func_name, wrapper)
        for suite_name, fn in list(suites.SUITES.items()):
            self._restore.append((suites.SUITES, suite_name, fn))
            suites.SUITES[suite_name] = self.wrap(f"suites.{suite_name}", fn)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()
