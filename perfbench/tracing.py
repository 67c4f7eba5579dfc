"""Spans recorded around piggybank's layer functions, from outside the package.

A Tracer replaces a function at the module (or class) attribute where its
callers look it up, records one span per call, and puts the original back
on uninstall. The benchmark drives one operation at a time (closed loop,
one caller), so the tracer's current op id tags spans from every thread
that works on that operation, including both endpoints of a session.

reduce_spans turns the flat span list into per-span parent names and self
times; self time is computed per thread, because a session's two endpoint
threads overlap in time and neither is the other's child.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    op: int
    tid: int
    start: int  # perf_counter_ns
    end: int
    size: int  # bytes sent, reads made, ...; 0 when not measured


class Reduced(NamedTuple):
    span: Span
    parent: str | None
    self_ns: int


class Tracer:
    """Records spans while installed; op is the id of the current operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        size: Callable[[tuple], int] | None = None,
    ) -> None:
        """Replace owner.attr by a timing wrapper; record a miss if absent."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return
        spans, tracer = self.spans, self
        clock, ident = time.perf_counter_ns, threading.get_ident

        def traced(*args, **kwargs):
            op, start = tracer.op, clock()
            try:
                return original(*args, **kwargs)
            finally:
                n = size(args) if size is not None else 0
                spans.append(Span(name, op, ident(), start, clock(), n))

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_read_frame(self, owner: object, attr: str, name: str) -> None:
        """read_frame(read): the span's size is how many read calls it made."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return
        spans, tracer = self.spans, self
        clock, ident = time.perf_counter_ns, threading.get_ident

        def traced(read, *args, **kwargs):
            reads = 0

            def counted(count):
                nonlocal reads
                reads += 1
                return read(count)

            op, start = tracer.op, clock()
            try:
                return original(counted, *args, **kwargs)
            finally:
                spans.append(Span(name, op, ident(), start, clock(), reads))

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def reduce_spans(spans: list[Span]) -> list[Reduced]:
    """Parent name and self time for every span, nesting resolved per thread.

    On one thread, calls nest properly: a span's parent is the innermost
    span on the same thread that encloses it. Self time is the span's
    duration minus the durations of its direct children.
    """
    by_thread: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_thread[span.tid].append(span)
    out: list[Reduced] = []
    for items in by_thread.values():
        items.sort(key=lambda s: (s.start, -s.end))
        stack: list[list] = []  # [span, child_ns, parent_name]

        def finish(entry: list) -> None:
            span, child_ns, parent = entry
            out.append(Reduced(span, parent, span.end - span.start - child_ns))

        for span in items:
            while stack and stack[-1][0].end <= span.start:
                finish(stack.pop())
            parent = None
            if stack:
                stack[-1][1] += span.end - span.start
                parent = stack[-1][0].name
            stack.append([span, 0, parent])
        while stack:
            finish(stack.pop())
    return out
