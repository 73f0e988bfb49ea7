"""Spans recorded from outside lcpkit, kept in memory until the run ends.

A span has a name, a start, an end, the span that caused it and optional
counts. The benchmark opens spans around the calls it makes itself.
``wrap`` replaces a module attribute through which lcpkit calls one of its
own layers, so calls inside ``fit_and_evaluate`` and ``predict_scores`` get
spans too; ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            s = Span(len(self.spans), name, stack[-1] if stack else None, 0.0)
            self.spans.append(s)
        stack.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``count(result)`` may return counts to attach to the span. An
        attribute the program no longer has is skipped, so its layer reads 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if count is not None:
                    s.counts.update(count(result))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def within(self, root: Span, name: str) -> list[Span]:
        """Descendants of ``root`` named ``name`` (spans are stored in start order)."""
        inside = {root.id}
        found = []
        for s in self.spans[root.id + 1 :]:
            if s.start > root.end:
                break
            if s.parent in inside:
                inside.add(s.id)
                if s.name == name:
                    found.append(s)
        return found

    def self_seconds(self, span: Span) -> float:
        """Duration of ``span`` minus the time its direct children cover."""
        covered = 0.0
        for s in self.spans[span.id + 1 :]:
            if s.start > span.end:
                break
            if s.parent == span.id:
                covered += s.seconds
        return span.seconds - covered

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for s in self.spans:
                row = {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
                if s.counts:
                    row["counts"] = s.counts
                sink.write(json.dumps(row) + "\n")
