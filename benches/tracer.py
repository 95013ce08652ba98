"""Span tracer for the benchmark's traced run.

The tracer wraps public functions at the package's layer boundaries from
outside: it replaces a module or class attribute with a wrapper for the
duration of one traced operation and restores the original afterwards.
No file of the package changes.

Every wrapped call is one span with a name, start, end and parent span.
Self time (a span's duration minus the time its child spans cover) is
accumulated as calls end, so aggregates need no span storage.  Spans of
the first few operations are also kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, List, Optional, Tuple


class OpStats:
    """What the spans of one operation add up to."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()   # counts read off return values

    def add(self, other: "OpStats") -> None:
        for mine, theirs in ((self.calls, other.calls),
                             (self.total_ns, other.total_ns),
                             (self.self_ns, other.self_ns),
                             (self.counts, other.counts)):
            mine.update(theirs)


class Tracer:
    def __init__(self):
        self._patches: List[Tuple[object, str, object, object]] = []
        self._stack: List[list] = []       # [span id, child ns] per open span
        self._next_id = 0
        self._op: Optional[int] = None
        self._keep = False
        self.spans: List[tuple] = []       # (op, id, parent, name, start, end)
        self.stats = OpStats()

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable[[object, Counter], None]] = None
             ) -> Callable:
        """A traced stand-in for fn; on_return reads counts off its result."""
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats = self.stats
                stats.calls[name] += 1
                stats.total_ns[name] += duration
                stats.self_ns[name] += duration - frame[1]
                if self._keep:
                    self.spans.append((self._op, span_id, parent, name,
                                       start, end))
            if on_return is not None:
                on_return(result, stats.counts)
            return result

        return traced

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Register owner.attr to be replaced by wrapper while tracing."""
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))

    def begin(self, op: int, keep_spans: bool) -> None:
        """Install the wrappers and start a fresh OpStats for operation op."""
        self._op = op
        self._keep = keep_spans
        self.stats = OpStats()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def end(self) -> OpStats:
        """Restore the originals and return the operation's stats."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._stack.clear()
        return self.stats

    def write_spans(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps(meta, sort_keys=True) + "\n")
            for op, span_id, parent, name, start, end in self.spans:
                f.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                    "name": name, "start_ns": start,
                                    "end_ns": end}) + "\n")
