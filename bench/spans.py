"""In-memory spans around the benchmark's calls into collapse-lab.

A span records name, start, end, its parent span and the identifier of
the workload run (one round) it belongs to.  Spans stay in memory until
:meth:`Tracer.write` at the end of the benchmark.  A disabled tracer
calls straight through, so untraced rounds pay nothing but one branch.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        record = {"id": span_id, "name": name, "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(record)
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str, run_id: str, within: str | None = None) -> list[float]:
        """Durations of the spans called ``name`` in one workload run,
        optionally only those with an ancestor called ``within``."""
        out = []
        for s in self.spans:
            if s["name"] != name or s["run"] != run_id:
                continue
            if within is not None and not self._has_ancestor(s, within):
                continue
            out.append(s["end"] - s["start"])
        return out

    def _has_ancestor(self, span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")
