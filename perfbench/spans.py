"""In-memory span recorder that wraps library functions from outside.

A wrapped function is replaced at the module attribute its caller looks
it up through, so nothing under ``src/`` changes. Each span keeps its
name, start, end, parent index and any fields taken from the result.
"""
from __future__ import annotations

import time
from typing import Callable


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent})
        self._stack.append(idx)
        return idx

    def close(self, idx: int, **fields) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span.update(fields)
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, fields: Callable[[object], dict] | None = None) -> None:
        """Replace ``module.attr`` with a wrapper that records one span per call."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, **(fields(result) if fields and result is not None else {}))

        self._restore.append((module, attr, fn))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total seconds and self seconds (total
    minus the time covered by direct child spans)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s, c in zip(spans, child):
        d = s["end"] - s["start"]
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += d
        agg["self_s"] += d - c
    return out
