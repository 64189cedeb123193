"""Request-scoped spans recorded from outside the program.

The benchmark never edits the code it measures.  Instead it replaces the
public methods of the objects it constructs itself (warehouse, reasoner,
session, query service, streaming ingestor) with instance attributes that
record a span around the original bound method.  Calls made through
``self.method(...)`` inside the program resolve to the instance attribute
first, so nested layers show up as nested spans.

Every span has a name, a start and end (``time.perf_counter``), a parent
and a request id.  Spans live in memory until :func:`dump` writes them
out.  A layer's *self time* is its span's duration minus the part of
that interval covered by its children.  Because self times partition the
root span's interval when children nest inside their parents, the sum of
self times of one request equals its wall time; :func:`self_check` verifies
exactly that, which catches spans attributed to the wrong request (for
example a worker thread's span that escaped the request it executes).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

_now = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request")

    def __init__(
        self, sid: int, name: str, start: float,
        parent: Optional["Span"], request: int,
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request


class Tracer:
    """Collects spans; one per-thread stack gives each new span its parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._next_request = 0

    # -- span primitives ------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, parent: Optional[Span], request: int) -> Span:
        with self._lock:
            self._next_id += 1
            span = Span(self._next_id, name, _now(), parent, request)
            self.spans.append(span)
        return span

    def new_request(self, name: str) -> Span:
        """A root span with a fresh request id; not pushed on any stack."""
        with self._lock:
            self._next_request += 1
            request = self._next_request
        return self._new(name, None, request)

    def push(self, name: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = self._new(name, parent, parent.request if parent else 0)
        stack.append(span)
        return span

    def pop(self, span: Span) -> None:
        span.end = _now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def request(self, name: str) -> Iterator[Span]:
        """``with tracer.request("op"):`` — a root span on this thread."""
        root = self.new_request(name)
        self._stack().append(root)
        try:
            yield root
        finally:
            self.pop(root)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """``with tracer.span("layer"):`` — a child of the current span."""
        span = self.push(name)
        try:
            yield span
        finally:
            self.pop(span)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, obj: Any, methods: Iterable[str], prefix: str) -> None:
        """Record a span ``<prefix>.<method>`` around each named method."""
        for method in methods:
            original = getattr(obj, method)
            setattr(obj, method, self._wrapped(original, "%s.%s" % (prefix, method)))

    def _wrapped(self, original: Callable, name: str) -> Callable:
        push, pop = self.push, self.pop

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = push(name)
            try:
                return original(*args, **kwargs)
            finally:
                pop(span)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def wrap_service(self, service: Any) -> None:
        """Attribute a QueryService worker's spans to the submitting request.

        ``submit`` opens a ``serve.request`` root span on the caller's thread
        and ends it when the future completes.  The worker executes the
        request in ``_answer(request)``, the one non-public hook: it looks up
        the root span by the request's future and parents ``serve.answer``
        on it.  ``submit`` holds the tracer lock until the future is
        registered, so a worker that picks the request up first waits.
        """
        original_submit = service.submit
        original_answer = service._answer
        lock = threading.Lock()
        pending: Dict[int, Span] = {}  # future id -> request span

        def submit(kind, run_id, data_id=None, view=None):
            root = self.new_request("serve.request")
            with lock:
                try:
                    future = original_submit(kind, run_id, data_id=data_id, view=view)
                except BaseException:
                    root.end = _now()
                    raise
                pending[id(future)] = root

            def finish(_future: Any, root: Span = root) -> None:
                root.end = _now()

            future.add_done_callback(finish)
            return future

        def answer(request):
            with lock:
                root = pending.pop(id(request.future), None)
            span = self.push("serve.answer", parent=root)
            try:
                return original_answer(request)
            finally:
                self.pop(span)

        service.submit = submit
        service._answer = answer



def dump(spans: List[Span], path: str) -> None:
    """Write every span as one JSON object per line."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps({
                "id": span.sid,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent.sid if span.parent else None,
                "request": span.request,
            }) + "\n")


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.sid, []).append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.sid, ())
            if min(e, span.end) > max(s, span.start)
        ]
        out[span.sid] = (span.end - span.start) - _union_length(covered)
    return out


def self_check(spans: List[Span], selfs: Dict[int, float]) -> Tuple[int, float]:
    """Per request, compare the sum of self times with the root's wall time.

    Returns (requests checked, worst relative error).  A span outside its
    parent's interval, or two overlapping siblings, makes the sum drift
    from the wall time.
    """
    totals: Dict[int, float] = {}
    roots: Dict[int, Span] = {}
    for span in spans:
        if span.request == 0:
            continue
        totals[span.request] = totals.get(span.request, 0.0) + selfs[span.sid]
        if span.parent is None:
            roots[span.request] = span
    worst = 0.0
    for request, root in roots.items():
        wall = root.end - root.start
        if wall <= 0:
            continue
        worst = max(worst, abs(totals[request] - wall) / wall)
    return len(roots), worst
