"""Spans around calls into rsstest's layers, recorded from outside the package.

`install` replaces layer functions under the names their callers bind
(for example `rsstest.mc.draw_cells`, which `mc_null_distributions`
looks up in its own module) with wrappers that record a span per call:
name, label, start, end and the span that caused it.  Spans stay in
memory; `summarize` turns them into per-layer totals and self times,
where a span's self time is its duration minus the part of its interval
that its child spans cover.

Worker threads (the thread pools in `mc` and `power`) start with an
empty span stack, so a span opened there takes the innermost open span
of the main thread as its parent: in the benchmark only the main thread
submits work to pools.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, label, start_ns, end_ns, parent]
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, label=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = self._stacks.get(self._main)
                parent = main_stack[-1] if main_stack and ident != self._main else None
            tag = label(*args, **kwargs) if label else ""
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, tag, time.perf_counter_ns(), None, parent])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[idx][3] = time.perf_counter_ns()

        return traced


def _model_tag(model, *args, **kwargs) -> str:
    return model.tag


def _grid(k, n, *args, **kwargs) -> str:
    return f"{k}x{n}"


# (module, attribute, span name, label); the attribute is the name the
# calling module binds, so each layer boundary is wrapped where it is used.
WRAPPED = (
    ("rsstest.mc", "draw_cells", "models.draw", _model_tag),
    ("rsstest.mc", "evaluate_batch", "batch.evaluate", None),
    ("rsstest.mc", "mc_null_distributions", "mc.null", None),
    ("rsstest.power", "draw_cells", "models.draw", _model_tag),
    ("rsstest.power", "evaluate_batch", "batch.evaluate", None),
    ("rsstest.power", "mc_null_distributions", "mc.null", None),
    ("rsstest.power", "critical_value", "nulldist.critical_value", None),
    ("rsstest.power", "resolve_null_distributions", "power.null", None),
    ("rsstest.power", "estimate_power", "power.estimate", None),
    ("rsstest.nulldist", "exact_distributions", "exact.grid", _grid),
    ("rsstest.nulldist", "evaluate", "statistics.evaluate", None),
    ("rsstest.nulldist", "critical_value", "nulldist.critical_value", None),
    ("rsstest.cli", "parse_csv", "sample.parse_csv", None),
    ("rsstest.cli", "run_test", "nulldist.run_test", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer function listed in WRAPPED that the package has."""
    for module_name, attr, name, label in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, tracer.wrap(name, fn, label))


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[list]) -> dict:
    """Per (name|label): [total seconds, self seconds, calls].

    Also counts `mc_chunks`, the draw spans whose parent is an `mc.null`
    span, and `exact_words`, the words of every grid this process built an
    exact null for (computed from the grid, not counted by the engine).
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, list] = {}
    chunks = 0
    for idx, (name, label, start, end, parent) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(idx, ())]
        own = (end - start) - _covered([iv for iv in inside if iv[0] < iv[1]])
        key = f"{name}|{label}"
        row = out.setdefault(key, [0.0, 0.0, 0])
        row[0] += (end - start) / 1e9
        row[1] += own / 1e9
        row[2] += 1
        if name == "models.draw" and parent is not None and spans[parent][0] == "mc.null":
            chunks += 1
    grids = {label for name, label, *_ in spans if name == "exact.grid"}
    words = sum(exact_words(*map(int, grid.split("x"))) for grid in grids)
    return {"layers": out, "mc_chunks": chunks, "exact_words": words}


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per process of a pass)."""
    layers: dict[str, list] = {}
    chunks = words = 0
    for summary in summaries:
        chunks += summary["mc_chunks"]
        words += summary["exact_words"]
        for key, (total, own, calls) in summary["layers"].items():
            row = layers.setdefault(key, [0.0, 0.0, 0])
            row[0] += total
            row[1] += own
            row[2] += calls
    return {"layers": layers, "mc_chunks": chunks, "exact_words": words}


def exact_words(k: int, n: int) -> int:
    """Distinct slot words the exact engine walks on a k x n grid."""
    return math.factorial(k * n) // math.factorial(n) ** k
