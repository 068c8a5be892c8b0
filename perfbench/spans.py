"""Span tracing of the package's layers, installed from outside `src/`.

The engines import functions by name (`from .lp import solve_lp`), so
wrapping only the defining module would miss most calls.  `Tracer.install`
therefore rebinds every attribute of every loaded `hoffman` module that
refers to a traced function, and `uninstall` puts the originals back.

Each call records a span (id, parent id, name, start, end, thread).  The current
span lives in a context variable; while tracing, the thread pool that
`activesets` uses is replaced by one that runs each task in a copy of the
submitting context, so a `realizability` span opened on a worker thread takes
the `enumerate_active_sets` span that submitted it as its parent.  Spans stay
in memory until `write` is called once at the end.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

TRACED: dict[str, tuple[str, ...]] = {
    "rational": ("solve_linear", "nullspace"),
    "lp": ("solve_lp", "feasible"),
    "activesets": ("enumerate_active_sets", "realizability", "maximal_sets"),
    "convex": ("minmax_value_sq", "minmax_sign", "min_norm_point_sq"),
    "analysis": (
        "check_error_bound",
        "check_stability",
        "convex_hull_multipliers",
        "verify_certificate",
    ),
    "formats": ("load_system",),
    "sampling": ("estimate_hoffman",),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)

COUNTERS = (
    "lp.solve_lp.infeasible",
    "lp.feasible.infeasible",
    "activesets.subsets_total",
    "activesets.realizability.hits",
    "convex.sign_negative",
    "convex.sign_zero",
    "convex.sign_positive",
)

# Derived per-layer metrics: (name, unit).
DERIVED = (
    ("lp.solve_lp.infeasible_frac", "ratio"),
    ("lp.feasible.infeasible", "count"),
    ("activesets.subsets_total", "count"),
    ("activesets.realizability.hit_frac", "ratio"),
    ("activesets.pruned_frac", "ratio"),
    ("convex.sign_negative", "count"),
    ("convex.sign_zero", "count"),
    ("convex.sign_positive", "count"),
    ("trace.overhead_frac", "ratio"),
)

PER_LAYER = tuple(
    (f"{name}.{kind}", unit) for name in TRACED_NAMES for kind, unit in (("calls", "count"), ("self_s", "s"))
) + DERIVED

Span = tuple[int, "int | None", str, float, float, int]


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _observe(name: str, result: Any) -> str | None:
    """Name of the counter a call's outcome increments, if any."""
    if name == "lp.solve_lp":
        return "lp.solve_lp.infeasible" if result.status.name == "INFEASIBLE" else None
    if name == "lp.feasible":
        return "lp.feasible.infeasible" if result.point is None else None
    if name == "activesets.realizability":
        return "activesets.realizability.hits" if result is not None else None
    if name == "convex.minmax_sign":
        return f"convex.sign_{result.value}"
    return None


class Tracer:
    """Records spans and outcome counters for the functions in TRACED."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        current, spans, lock, counters = self._current, self.spans, self._lock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with lock:
                span_id = next(self._ids)
            token = current.set(span_id)
            began = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                current.reset(token)
                with lock:
                    spans.append((span_id, current.get(), name, began, ended, threading.get_ident()))
            counter = _observe(name, result)
            with lock:
                if counter is not None:
                    counters[counter] += 1
                if name == "activesets.enumerate_active_sets":
                    system = args[0] if args else kwargs["system"]
                    counters["activesets.subsets_total"] += 2**system.m - 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every module attribute that refers to a traced function."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "hoffman" or key.startswith("hoffman."))
        ]
        for module, fns in TRACED.items():
            home = sys.modules[f"hoffman.{module}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        activesets = sys.modules["hoffman.activesets"]
        self._restore.append((activesets, "ThreadPoolExecutor", activesets.ThreadPoolExecutor))
        activesets.ThreadPoolExecutor = _ContextPool

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per traced function: number of calls and summed self time.

        Self time is a span's duration minus the union of its children's
        intervals; children on worker threads may overlap each other.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, began, ended, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((began, ended))
        totals = {name: {"calls": 0, "self_s": 0.0} for name in TRACED_NAMES}
        for span_id, _, name, began, ended, _ in self.spans:
            covered = 0.0
            reach = began
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, reach), min(hi, ended)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[name]["calls"] += 1
            totals[name]["self_s"] += (ended - began) - covered
        return totals

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, dict]:
        """Every PER_LAYER metric; `untraced_s` and `traced_s` are the wall
        times of the same pass without and with tracing (medians over
        alternating passes)."""
        totals = self.layer_totals()
        counts = self.counters

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        attempted = totals["activesets.realizability"]["calls"]
        subsets = counts["activesets.subsets_total"]
        values: dict[str, float] = {}
        for name in TRACED_NAMES:
            values[f"{name}.calls"] = totals[name]["calls"]
            values[f"{name}.self_s"] = totals[name]["self_s"]
        values.update(
            {
                "lp.solve_lp.infeasible_frac": share(
                    counts["lp.solve_lp.infeasible"], totals["lp.solve_lp"]["calls"]
                ),
                "lp.feasible.infeasible": counts["lp.feasible.infeasible"],
                "activesets.subsets_total": subsets,
                "activesets.realizability.hit_frac": share(counts["activesets.realizability.hits"], attempted),
                "activesets.pruned_frac": 1.0 - share(attempted, subsets) if subsets else 0.0,
                "convex.sign_negative": counts["convex.sign_negative"],
                "convex.sign_zero": counts["convex.sign_zero"],
                "convex.sign_positive": counts["convex.sign_positive"],
                "trace.overhead_frac": traced_s / untraced_s - 1.0,
            }
        )
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["id", "parent", "name", "start", "end", "thread"], "spans": self.spans}))
