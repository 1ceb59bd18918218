"""Call counting and span timing wrapped around ruinwalk's module functions.

The tracer patches the public functions of each layer module from outside
the package: nothing in ``src/`` knows it is being traced.  A function is
wrapped once and the wrapper is bound wherever the original is bound, so
names imported with ``from .charpoly import tau_roots`` (in ``mgf``) or
``from scipy.linalg import solve_banded`` (in ``oracle``) are counted too.

Every wrapped call adds to per-function totals: calls, inclusive time, self
time (inclusive time minus the time of directly nested wrapped calls) and
calls that raised.  Calls to the hot inner functions (``HOT_LAYERS``) are
only counted; every other call is also kept as a span record
``(id, parent_id, name, thread, start, end)``.  State is per thread, so the
Monte Carlo worker threads neither lose updates nor nest under the caller.
``core`` is not wrapped: its properties run millions of times per sweep and
their cost stays in the callers' self time.

This module also parses ``python -X importtime`` output into the set-up
breakdown.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path

LAYERS = ("charpoly", "mgf", "metrics", "oracle", "rng", "verify", "cli")
HOT_LAYERS = frozenset({"charpoly", "mgf", "rng"})
# names bound into a layer module from outside the package, traced as part of it
FOREIGN = {"oracle": ("solve_banded",)}


def add_src_to_path(root: Path) -> None:
    """Make ``import ruinwalk`` load the checkout's sources."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def layer_functions(module) -> dict[str, Callable]:
    """Public functions defined in ``module``, plus its traced foreign names."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }
    for name in FOREIGN.get(layer, ()):
        found[name] = getattr(module, name)
    return found


class _ThreadState(threading.local):
    def __init__(self, tracer: "Tracer"):
        self.stack: list[list[float]] = []  # per open call: [child time]
        self.spans: list[int] = []  # ids of open recorded spans
        self.stats: dict[str, list[float]] = {}
        with tracer._lock:
            tracer._all_stats.append(self.stats)


class Tracer:
    """Install with :meth:`install`, read with :meth:`report`, undo with :meth:`uninstall`.

    ``observers`` maps a traced name such as ``"oracle.solve_exact"`` to a
    callable ``(bound_arguments, result)`` run after each successful call,
    outside the timed interval, to collect facts from arguments or results.
    """

    def __init__(self, observers: dict[str, Callable] | None = None):
        self.observers = dict(observers or {})
        self._lock = threading.Lock()
        self._all_stats: list[dict[str, list[float]]] = []  # one per thread
        self._local = _ThreadState(self)
        self._span_records: list[tuple] = []
        self._next_span = 0
        self._patches: list[tuple[object, str, Callable]] = []
        self.wrapped: dict[str, Callable] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import ruinwalk

        modules = tuple(importlib.import_module(f"ruinwalk.{layer}") for layer in LAYERS)
        replacement: dict[int, Callable] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, fn in layer_functions(module).items():
                key = f"{layer}.{name}"
                wrapper = self._wrap(key, fn, keep_span=layer not in HOT_LAYERS)
                self.wrapped[key] = fn
                replacement[id(fn)] = wrapper
        # rebind every module-level name that refers to a wrapped function
        for module in (ruinwalk,) + modules:
            for name, obj in list(vars(module).items()):
                wrapper = replacement.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, key: str, fn: Callable, keep_span: bool) -> Callable:
        observer = self.observers.get(key)
        signature = inspect.signature(fn) if observer else None
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.stack
            frame = [0.0]
            stack.append(frame)
            span = self._open_span() if keep_span else None
            failed = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                entry = local.stats.get(key)
                if entry is None:
                    entry = local.stats[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                entry[3] += failed
                if span is not None:
                    self._close_span(span, key, start, end)
            if observer is not None:
                observer(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _open_span(self) -> tuple[int, int | None]:
        with self._lock:
            span_id = self._next_span
            self._next_span += 1
        spans = self._local.spans
        parent = spans[-1] if spans else None
        spans.append(span_id)
        return span_id, parent

    def _close_span(self, span, key, start, end) -> None:
        self._local.spans.pop()
        span_id, parent = span
        record = (span_id, parent, key, threading.get_ident(), start, end)
        with self._lock:
            self._span_records.append(record)

    # -- results ----------------------------------------------------------

    def report(self) -> dict:
        """Per-function totals merged over threads, plus the span records."""
        merged: dict[str, dict] = {}
        with self._lock:
            all_stats = list(self._all_stats)
            spans = sorted(self._span_records)
        for stats in all_stats:
            for key, (calls, total, self_time, failed) in stats.items():
                out = merged.setdefault(
                    key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}
                )
                out["calls"] += calls
                out["total_s"] += total
                out["self_s"] += self_time
                out["failed"] += failed
        return {
            "functions": dict(sorted(merged.items())),
            "span_fields": ["id", "parent", "name", "thread", "start", "end"],
            "spans": spans,
        }


# ---------------------------------------------------------------------------
# python -X importtime


IMPORT_GROUPS = ("numpy", "scipy", "ruinwalk")


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of import self time attributed to numpy, scipy and ruinwalk.

    A module counts toward the outermost numpy or scipy import that
    (directly or indirectly) pulled it in, so numpy submodules that scipy
    loads count as scipy's cost; else toward ruinwalk if a ruinwalk module
    imported it; else toward ``other`` (interpreter start-up).  The
    importtime log lists children before their parent, so it is read
    backwards to recover the nesting.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        fields = line.split("|")
        self_us = int(fields[0].split(":")[1])
        name_field = fields[2].rstrip()
        level = (len(name_field) - len(name_field.lstrip(" ")) - 1) // 2
        entries.append((level, name_field.strip(), self_us))

    totals = {group: 0.0 for group in IMPORT_GROUPS + ("other",)}
    ancestors: list[tuple[int, str]] = []
    for level, name, self_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        chain = [n for _, n in ancestors] + [name]
        tops = [n.split(".")[0] for n in chain]  # outermost first
        group = next((t for t in tops if t in ("numpy", "scipy")), None)
        if group is None:
            group = "ruinwalk" if "ruinwalk" in tops else "other"
        totals[group] += self_us * 1e-6
        ancestors.append((level, name))
    return totals
