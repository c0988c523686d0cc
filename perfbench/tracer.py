"""In-memory spans recorded around calls into the program's layers.

The program is not changed: :meth:`Tracer.wrap` replaces a public
function or method with a wrapper that records one span per call and
:meth:`Tracer.restore` puts the original back.  A span is a list
``[id, name, op, parent, start, end, attrs]``; ``op`` is the benchmark
operation (request, query, ingest step) the call served, ``parent`` the
id of the enclosing span on the same thread (or ``None``).  Spans stay
in memory until the run ends.

Timestamps come from ``time.monotonic`` (``CLOCK_MONOTONIC``), so spans
recorded in the server process line up with the client's clock.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    """Wrap layer entry points and keep their spans in memory."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []

    # -- operation context (per thread) -----------------------------------

    def begin(self, op, traced: bool = True) -> None:
        """Attribute the calls this thread makes from now on to ``op``;
        calls are recorded only when ``traced``."""
        local = self._local
        local.op = op
        local.on = traced
        local.stack = []

    def end(self) -> None:
        self._local.on = False
        self._local.op = None

    def context(self):
        """The calling thread's ``(op, traced, parent span id)``, to be
        handed to :meth:`adopt` on another thread."""
        local = self._local
        stack = getattr(local, "stack", None)
        return (getattr(local, "op", None), getattr(local, "on", False),
                stack[-1] if stack else None)

    def adopt(self, context) -> None:
        """Continue another thread's operation on this thread."""
        op, traced, parent = context
        local = self._local
        local.op = op
        local.on = traced
        local.stack = [parent] if parent is not None else []

    # -- spans -------------------------------------------------------------

    def open(self, name: str):
        """Start a span on the calling thread, or ``None`` if the
        thread's operation is not traced."""
        local = self._local
        if not getattr(local, "on", False):
            return None
        stack = local.stack
        span = [next(self._ids), name, local.op,
                stack[-1] if stack else None, time.monotonic(), None, None]
        self.spans.append(span)
        stack.append(span[0])
        return span

    def close(self, span, attrs=None) -> None:
        span[5] = time.monotonic()
        span[6] = attrs
        self._local.stack.pop()

    def record(self, name: str, start: float, end: float,
               attrs=None) -> None:
        """A span outside any operation (e.g. a background scrape)."""
        self.spans.append([next(self._ids), name, None, None, start, end,
                           attrs])

    def wrap(self, owner, attribute: str, name: str, attrs=None,
             always: bool = False) -> None:
        """Record a span ``name`` around every call of
        ``owner.attribute``.

        ``attrs(args, kwargs, result)`` (optional) returns a dict kept
        on the span.  ``always`` records calls made outside any traced
        operation too (for background threads).
        """
        own = vars(owner)
        raw = own.get(attribute, getattr(owner, attribute))
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            if span is None:
                if not always:
                    return original(*args, **kwargs)
                start = time.monotonic()
                result = original(*args, **kwargs)
                tracer.record(name, start, time.monotonic(),
                              attrs(args, kwargs, result) if attrs
                              else None)
                return result
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span, attrs(args, kwargs, result) if attrs
                         else None)
            return result

        setattr(owner, attribute,
                classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attribute,
                              raw if attribute in own else None))

    def restore(self) -> None:
        """Put every wrapped attribute back (newest first)."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            if raw is None:  # inherited: uncover the base's again
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, raw)


class SpanIndex:
    """Finished spans grouped for per-layer arithmetic."""

    def __init__(self, spans):
        self.spans = [span for span in spans if span[5] is not None]
        children = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]] += span[5] - span[4]
        self._children = children
        by_op = defaultdict(list)
        for span in self.spans:
            by_op[span[2]].append(span)
        self.by_op = by_op

    @staticmethod
    def duration(span) -> float:
        return span[5] - span[4]

    def self_time(self, span) -> float:
        """Duration minus the time its child spans cover."""
        return span[5] - span[4] - self._children.get(span[0], 0.0)

    def named(self, name: str, ops=None) -> list:
        """Spans called ``name``, optionally only those of ``ops``."""
        if ops is None:
            return [span for span in self.spans if span[1] == name]
        found = []
        for op in ops:
            found.extend(span for span in self.by_op.get(op, ())
                         if span[1] == name)
        return found

    def per_op(self, name: str, ops) -> list:
        """For each op in ``ops``, the summed duration of its spans
        called ``name``."""
        return [sum(self.duration(span) for span in self.by_op.get(op, ())
                    if span[1] == name) for op in ops]

    def self_per_op(self, name: str, ops) -> list:
        """For each op in ``ops``, the summed self time of its spans
        called ``name``."""
        return [sum(self.self_time(span) for span in self.by_op.get(op, ())
                    if span[1] == name) for op in ops]

    def top_level(self, op) -> float:
        """Time covered by the op's outermost spans."""
        return sum(self.duration(span) for span in self.by_op.get(op, ())
                   if span[3] is None)
