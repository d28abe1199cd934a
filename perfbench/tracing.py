"""Span tracing for the traced benchmark run.

The traced run wraps the public entry points of every layer from the
benchmark's side (nothing under ``src/`` knows about it).  Each wrapper
records one span — name, start, end, parent span, operation id — into
an in-memory list; self time is a span's duration minus the time its
direct children cover.  Wrappers are installed only for the traced run
and removed afterwards, so the untraced runs execute the program
exactly as a user would.

Spans nest per thread: the service daemon runs on its own thread, and
its coroutines never hold a synchronous span across an ``await``, so a
per-thread stack keeps parent links right.  The one asynchronous
wrapper (the HTTP request handler) is safe because the benchmark's
client sends one request at a time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = ["Tracer", "install_wrappers", "interval_union"]


class Tracer:
    """In-memory span store with per-thread nesting."""

    def __init__(self) -> None:
        # (name, start, end, parent id, operation id, self time, span id)
        self.spans: list[tuple[str, float, float, int, int, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.op_id = 0
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list | None:
        if not self.enabled:
            return None
        stack = self._stack()
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][1] if stack else -1
        # [name, id, parent, op, start, child_time]
        frame = [name, span_id, parent, self.op_id, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def close(self, frame: list | None) -> None:
        if frame is None:
            return
        end = time.perf_counter()
        stack = self._stack()
        # Pop through frames a generator abandoned mid-iteration.
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        duration = end - frame[4]
        if stack:
            stack[-1][5] += duration
        self.spans.append(
            (frame[0], frame[4], end, frame[2], frame[3], duration - frame[5], frame[1])
        )

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] += value

    # -- summaries ----------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, Any]]:
        """Per span name: call count, total, self time and durations."""
        summary: dict[str, dict[str, Any]] = {}
        for name, start, end, _parent, _op, self_time, _id in self.spans:
            entry = summary.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_time
            entry["durations"].append(end - start)
        return summary

    def root_intervals(self) -> list[tuple[float, float]]:
        return [(span[1], span[2]) for span in self.spans if span[3] == -1]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (id, name, start, end, parent, op)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, op, self_time, span_id in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "self": self_time},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def interval_union(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


# -- wrappers ---------------------------------------------------------------


def _wrap_function(tracer: Tracer, name: str | Callable, fn: Callable,
                   on_result: Callable | None) -> Callable:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            frame = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            return result
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if on_result is not None and frame is not None:
            on_result(tracer, result, args, kwargs)
        return result
    return wrapper


def _wrap_iterator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap a generator method: one span per ``next()`` on the inner iterator."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = iter(fn(*args, **kwargs))
        while True:
            frame = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                tracer.close(frame)
                return
            except BaseException:
                tracer.close(frame)
                raise
            tracer.close(frame)
            yield item
    return wrapper


def _resolve(path: str) -> tuple[object, str] | None:
    """``"pkg.module:Class.attr"`` → (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def install_wrappers(tracer: Tracer, table: Iterable[tuple]) -> Callable[[], None]:
    """Patch every ``(target, span name, kind[, on_result])`` in *table*.

    ``kind`` is ``"call"`` (function or method), ``"iter"`` (generator
    method, one span per item) or ``"classmethod"``. Targets that do not
    exist on the checked-out program are skipped and named on standard
    error, so the benchmark keeps running when a later change renames an
    internal (its layer then reads 0). Returns an ``uninstall`` callable
    that restores every original.
    """
    restore: list[tuple[object, str, object]] = []
    skipped: list[str] = []
    for entry in table:
        target, name, kind = entry[:3]
        on_result = entry[3] if len(entry) > 3 else None
        resolved = _resolve(target)
        if resolved is None:
            skipped.append(target)
            continue
        owner, attr = resolved
        original = inspect.getattr_static(owner, attr)
        if kind == "classmethod":
            if not isinstance(original, classmethod):
                skipped.append(target)
                continue
            patched: object = classmethod(
                _wrap_function(tracer, name, original.__func__, on_result)
            )
        elif kind == "iter":
            patched = _wrap_iterator(tracer, name, original)
        else:
            patched = _wrap_function(tracer, name, original, on_result)
        setattr(owner, attr, patched)
        restore.append((owner, attr, original))

    if skipped:
        print(f"perfbench: not traced (absent from this program): {', '.join(skipped)}",
              file=sys.stderr)

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall
