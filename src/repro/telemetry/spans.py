"""Hierarchical tracing spans on the pipeline's virtual clock.

A span is one timed unit of pipeline work (a build, an extraction
pass, one resource's generation, one LLM request, one emulated API
call).  Spans nest: the tracer keeps a stack, so whatever is opened
while another span is active becomes its child, and the finished tree
mirrors the call structure of the run (build -> extraction pass ->
resource -> LLM call; alignment round -> trace -> API call).

Time comes from the same clock abstraction the resilience layer uses
(:class:`~repro.resilience.policy.VirtualClock` by default), so a
traced run is exactly reproducible: durations measure *virtual*
seconds — backoff waits, breaker cooldowns — not host wall time.
"""

from __future__ import annotations

import bisect
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanEvent:
    """A point-in-time fact attached to a span (a retry, a trip)."""

    name: str
    time: float
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "time": self.time,
            "attributes": dict(self.attributes),
        }


class Span:
    """One timed, attributed unit of work in the trace tree."""

    __slots__ = (
        "name", "kind", "span_id", "parent_id", "start", "end",
        "status", "attributes", "events", "children",
    )

    def __init__(
        self,
        name: str,
        kind: str = "",
        span_id: str = "",
        parent_id: str | None = None,
        start: float = 0.0,
        attributes: dict | None = None,
    ):
        self.name = name
        self.kind = kind
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = start
        self.status = "ok"
        self.attributes = dict(attributes or {})
        self.events: list[SpanEvent] = []
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def event(self, name: str, time: float, **attributes: object) -> SpanEvent:
        record = SpanEvent(name=name, time=time, attributes=dict(attributes))
        self.events.append(record)
        return record

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": [event.to_dict() for event in self.events],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, kind={self.kind!r}, "
                f"id={self.span_id!r}, children={len(self.children)})")


class Tracer:
    """Builds the span tree for one run.

    Strictly nested usage per thread (``with tracer.span(...)``, or
    :meth:`open` paired with :meth:`close`) is the only supported
    shape.  The span stack is thread-local, so a pipeline that fans
    work out onto a thread pool keeps each worker's spans properly
    nested; a worker's *root* span attaches to the anchor span (see
    :meth:`anchored`) its orchestrator set before the fan-out, so the
    finished tree still mirrors the run's structure.
    Ids stay sequential under a lock; their assignment order between
    concurrent workers is the only nondeterminism a parallel run adds.
    """

    def __init__(self, clock):
        self.clock = clock
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._anchor: Span | None = None
        self._count = 0

    @property
    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    @property
    def current(self) -> Span | None:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    @property
    def span_count(self) -> int:
        return self._count

    @contextmanager
    def anchored(self):
        """Anchor worker-thread root spans to the caller's current span.

        Used around a thread-pool fan-out: spans opened by a thread
        with an empty stack become children of the span that was
        current here, instead of disconnected roots.
        """
        previous = self._anchor
        self._anchor = self.current
        try:
            yield
        finally:
            self._anchor = previous

    def open(self, name: str, kind: str = "",
             attributes: dict | None = None, file: bool = True) -> Span:
        """Open a span as the calling thread's innermost one.

        The span takes its id now and becomes a child of the current
        (or anchor) span.  A parentless span is filed in :attr:`roots`
        unless ``file`` is false: the caller then files it with
        :meth:`file_root` once it decides to keep it, or never.  Pair
        every open with :meth:`close` on the same thread.
        """
        stack = self._stack
        parent = stack[-1] if stack else self._anchor
        with self._lock:
            self._count += 1
            record = Span(
                name=name,
                kind=kind,
                span_id=f"s{self._count}",
                parent_id=parent.span_id if parent is not None else None,
                start=self.clock.now(),
                attributes=attributes,
            )
            if parent is not None:
                parent.children.append(record)
            elif file:
                self.roots.append(record)
        stack.append(record)
        return record

    def close(self, span: Span, error: BaseException | None = None) -> None:
        """End the calling thread's innermost span, ``span``.

        ``error`` is the exception that ended it, if any.
        """
        if error is not None:
            span.status = "error"
            span.attributes.setdefault("exception", type(error).__name__)
            # A simulated process death carries its kill site; stamping
            # it on the span makes crash-injection runs greppable in
            # the exported trace (duck-typed: no import of the chaos
            # layer from here).
            site = getattr(error, "site", None)
            if site is not None:
                span.attributes.setdefault("crash_site", site)
        span.end = self.clock.now()
        self._stack.pop()

    def file_root(self, span: Span) -> None:
        """File a root opened with ``file=False`` in :attr:`roots`.

        Roots stay in start (span id) order even when a concurrent
        request opened later is filed first.
        """
        with self._lock:
            roots = self.roots
            if roots and _sequence(roots[-1]) > _sequence(span):
                bisect.insort(roots, span, key=_sequence)
            else:
                roots.append(span)

    @contextmanager
    def span(self, name: str, kind: str = "", **attributes: object):
        """Open a child span of the current span for the ``with`` body."""
        record = self.open(name, kind, attributes)
        try:
            yield record
        except BaseException as error:
            self.close(record, error)
            raise
        self.close(record)

    def walk(self):
        """Every finished-or-open span, pre-order (parents first)."""
        pending = list(reversed(self.roots))
        while pending:
            span = pending.pop()
            yield span
            pending.extend(reversed(span.children))


def _sequence(span: Span) -> int:
    """A tracer-issued span's position in open order."""
    return int(span.span_id[1:])
