"""In-memory span recorder for the benchmark's calls into the library.

A span is (name, start_ns, end_ns, parent index, op id).  Spans are only
kept while the recorder is enabled; a disabled recorder calls straight
through, so untraced and traced ops run the same library code.  Self time
is a span's duration minus the durations of its direct children; the
benchmark makes its calls one after another, so children never overlap.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list = []   # [name, start_ns, end_ns, parent, op_id]
        self._stack: list = []
        self.op_id = None
        self.last = None        # name of the latest call started, to attribute a raise

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs), recording a span named <module>.<function>."""
        self.last = name
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter_ns(), 0, parent, self.op_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def self_times(self, weights: dict) -> dict:
        """Total self time in ns per span name over the ops in ``weights``,
        each op's spans multiplied by its weight."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict = {}
        for (name, start, end, _, op_id), children in zip(self.spans, child_ns):
            if op_id in weights:
                totals[name] = totals.get(name, 0) + weights[op_id] * (end - start - children)
        return totals

    def dump(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
