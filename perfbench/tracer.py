"""In-memory span tracer that wraps the names a calling module looks up.

A target ``(module, attribute, span)`` replaces ``module.attribute`` with a
wrapper that records one span per call: its name, start and end in
nanoseconds, and the index of the enclosing span (-1 at top level).  Only
the lookup in that one module is replaced, so a span marks a call that
crosses from one kfunmix module into another, and the program's own code
runs unchanged.  Spans stay in memory until :meth:`Tracer.write_csv`
writes them once at the end of a run.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class TraceError(RuntimeError):
    """A traced name is missing or a required layer recorded no calls."""


# Called after a span closes with (args, kwargs, result); its time is not
# part of the span and lands in the parent's self time.
Hook = Callable[[tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        # One (name, start_ns, end_ns, parent_index) tuple per call.
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, name: str, hook: Hook | None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(
        self, targets: list[tuple[Any, str, str, Hook | None]]
    ) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore them.

        Raises TraceError before wrapping anything if a target attribute no
        longer exists, so a rename cannot silently zero a layer.
        """
        for module, attr, span, _hook in targets:
            if not callable(getattr(module, attr, None)):
                raise TraceError(
                    f"{module.__name__}.{attr} does not exist; span {span!r} "
                    "cannot be recorded"
                )
        originals = []
        try:
            for module, attr, span, hook in targets:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span, hook))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def closed_spans(self) -> list[tuple[str, int, int, int]]:
        if self._stack or any(span is None for span in self.spans):
            raise TraceError("summary requested while a span is still open")
        return self.spans  # type: ignore[return-value]

    def durations(self, name: str) -> list[int]:
        """Inclusive durations in ns of every span with this name, in call order."""
        return [end - start for n, start, end, _ in self.closed_spans() if n == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time (s) and call-duration p50/p99 (us).

        Self time is the span's duration minus the durations of its direct
        children; spans nest strictly because the program is single-threaded.
        """
        spans = self.closed_spans()
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_name: dict[str, list[int]] = {}
        self_ns: dict[str, int] = {}
        for index, (name, start, end, _parent) in enumerate(spans):
            per_name.setdefault(name, []).append(end - start)
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[index]
        out = {}
        for name, durs in per_name.items():
            out[name] = {
                "calls": len(durs),
                "self_s": self_ns[name] / 1e9,
                "p50_us": statistics.median(durs) / 1e3,
                "p99_us": percentile(durs, 99.0) / 1e3,
            }
        return out

    def write_csv(self, path: str) -> None:
        """Write all spans as `index,name,start_ns,end_ns,parent` rows."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.closed_spans()):
                fh.write(f"{index},{name},{start},{end},{parent}\n")


def percentile(values: list[float] | list[int], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method) of a sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
