"""Span tracing around the public functions of the msolv modules.

Every wrapped call is one span on the calling thread, with its wall start
and end (``time.perf_counter``) and the thread's CPU time
(``time.thread_time``). Spans nest per thread. A layer's self time is the
CPU time of its spans minus that of their child spans: busy time, so two
pool threads that take turns on the GIL do not each count the other's
turn. Entry points report wall time instead. The hot
layers (``eval_split``, ``explore``, ``step``) run 10^5 times per job, so
spans are aggregated as they end, per thread id and span name, instead of
being stored one by one; the aggregates are merged when the job ends.

The checker entry points are the exception. The class engine expands a BFS
level on a ``ThreadPoolExecutor`` while the calling thread waits, so the
entry's children run on other threads. For them every child interval is
kept, and the entry's self time is its interval minus the union of the
intervals of its children on every thread.

Nothing here touches ``src/``: a wrapper replaces every binding of the
function in the ``msolv`` modules, because callers import the layers by
name (``msolv.checker.explore`` is the same object as
``msolv.semantics.explore``).
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter, thread_time

LAYERS = (
    ("parser", "parse"),
    ("validator", "validate"),
    ("properties", "parse_spec"),
    ("ptg", "taint_summary"),
    ("ptg", "build_ptg"),
    ("localization", "saturating_neighbourhood"),
    ("localization", "extend_neighbourhood"),
    ("localization", "allowed_vectors"),
    ("semantics", "explore"),
    ("semantics", "step"),
    ("properties", "eval_split"),
    ("properties", "eval_guarded"),
    ("properties", "check_universal"),
    ("checker", "check_compositional"),
    ("checker", "check_safety"),
    ("checker", "global_oracle"),
    ("checker", "verdict_to_json"),
    ("ptg", "semantic_pt"),
    ("ptg", "coverage_violations"),
)

ENTRIES = frozenset({"checker.check_compositional", "checker.check_safety",
                     "checker.global_oracle"})


def _step_reverted(args, kwargs, result) -> int:
    state = args[1] if len(args) > 1 else kwargs["state"]
    return 1 if result is state else 0


# Per-layer event counts beyond the number of calls.
COUNTS = {
    "semantics.explore": lambda args, kwargs, leaves: len(leaves),
    "semantics.step": _step_reverted,
    "ptg.coverage_violations": lambda args, kwargs, missing: len(missing),
}


def rebind(fn, replacement) -> int:
    """Replace every binding of ``fn`` in the loaded msolv modules; returns
    how many were replaced."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if name != "msolv" and not name.startswith("msolv."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)
                n += 1
    return n


class Tracer:
    def __init__(self):
        self._main = threading.get_ident()
        self._local = threading.local()
        self._aggs: dict[int, dict[str, list]] = {}      # thread -> name -> agg
        self._children: dict[int, list[float]] = {}      # thread -> [s, e, ...]
        self._entries: list[tuple[float, float]] = []

    def install(self) -> None:
        """Wrap every layer in LAYERS; msolv must already be imported."""
        for module, func in LAYERS:
            fn = getattr(sys.modules[f"msolv.{module}"], func)
            name = f"{module}.{func}"
            if rebind(fn, self._wrap(name, fn, COUNTS.get(name))) == 0:
                raise RuntimeError(f"no binding of {name} to wrap")

    def _thread_state(self):
        try:
            return self._local.state
        except AttributeError:
            tid = threading.get_ident()
            state = ([], self._aggs.setdefault(tid, {}),
                     self._children.setdefault(tid, []), tid != self._main)
            self._local.state = state
            return state

    def _wrap(self, name: str, fn, count):
        is_entry = name in ENTRIES
        entries = self._entries
        thread_state = self._thread_state

        def traced(*args, **kwargs):
            stack, aggs, children, on_worker = thread_state()
            frame = [0.0, is_entry]   # [CPU time of child spans, is an entry]
            stack.append(frame)
            t0 = perf_counter()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_time() - c0
                t1 = perf_counter()
                stack.pop()
                agg = aggs.get(name)
                if agg is None:
                    agg = aggs[name] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += t1 - t0
                agg[2] += cpu - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += cpu
                    if parent[1]:
                        children.append(t0)
                        children.append(t1)
                elif on_worker:
                    children.append(t0)
                    children.append(t1)
                if is_entry:
                    entries.append((t0, t1))
            if count is not None:
                agg[3] += count(args, kwargs, result)
            return result

        return traced

    def report(self) -> dict:
        """Merged aggregates: {span: {calls, total_s (wall), self_s (CPU),
        count}} plus the checker entries' wall self time across threads."""
        spans: dict[str, dict] = {}
        for aggs in self._aggs.values():
            for name, (calls, total, own, count) in aggs.items():
                s = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0, "count": 0})
                s["calls"] += calls
                s["total_s"] += total
                s["self_s"] += own
                s["count"] += count
        intervals = sorted((flat[i], flat[i + 1]) for flat in self._children.values()
                           for i in range(0, len(flat), 2))
        merged: list[list[float]] = []
        for s, e in intervals:
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        checker_self = 0.0
        for s, e in self._entries:
            covered = sum(max(0.0, min(e, me) - max(s, ms)) for ms, me in merged
                          if me > s and ms < e)
            checker_self += (e - s) - covered
        return {"spans": spans, "checker_self_s": checker_self}
