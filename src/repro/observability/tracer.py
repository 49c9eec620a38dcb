"""A zero-dependency span tracer.

``tracer.span("chain.verify_proof", inputs=3)`` is a context manager
producing one :class:`Span` per ``with`` block.  Spans nest: the active
span is tracked in a :mod:`contextvars` variable, so each thread (and
each asyncio task) maintains its own ancestry and a child records its
parent's id without any explicit plumbing.  Finished spans are appended
to the tracer's buffer under a lock.

Disabled is the default and costs (almost) nothing: ``span()`` returns
a shared singleton whose ``__enter__``/``__exit__`` are empty — no
allocation, no clock read, no lock.  The overhead guard in
``tests/observability/test_overhead.py`` holds this path to < 5% of an
auth-circuit verification.

Clock injection: the tracer reads timestamps from a swappable clock so
traces taken under the discrete-event chain simulation are bit-for-bit
reproducible.  :meth:`Tracer.set_clock` accepts a plain callable
returning seconds or a :class:`repro.chain.clock.SimClock`-shaped
object (anything with a numeric ``now`` attribute).

Process safety: spans record their ``pid``; a forked worker (the
:func:`repro.zksnark.backend.fanout_map` fork pool) inherits a
consistent snapshot of the buffer and its appends stay in the child,
so the parent's trace is never corrupted — cross-process aggregation
is the exporter's job, not the tracer's.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attrs(self, **attrs: Any) -> None:
        pass


NULL_SPAN = NullSpan()


class Span:
    """One timed, attributed, parent-linked unit of work."""

    __slots__ = (
        "name", "span_id", "parent_id", "start", "end", "attrs", "status",
        "pid", "_tracer", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self.start: float = 0.0
        self.end: float = 0.0
        self.status = "ok"
        self.pid = os.getpid()
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "Span":
        parent = self._tracer._active.get()
        if parent is not None:
            self.parent_id = parent.span_id
        self._token = self._tracer._active.set(self)
        self.start = self._tracer._read_clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._tracer._read_clock()
        if exc_type is not None:
            self.status = f"error:{exc_type.__name__}"
        if self._token is not None:
            self._tracer._active.reset(self._token)
            self._token = None
        self._tracer._record(self)
        return False

    def set_attrs(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable record (the JSON-lines wire format)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "pid": self.pid,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans; disabled (and near-free) unless switched on."""

    def __init__(self, clock: Optional[Any] = None) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._active: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "repro-active-span", default=None
        )
        self._ids = itertools.count(1)
        self._read_clock: Callable[[], float] = time.perf_counter
        if clock is not None:
            self.set_clock(clock)

    # ----- control -----------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def set_clock(self, clock: Any) -> None:
        """Swap the time source.

        ``clock`` may be ``None`` (restore the wall clock), a callable
        returning seconds, or an object with a numeric ``now`` attribute
        (:class:`repro.chain.clock.SimClock`), which makes traces
        deterministic under the simulated chain.
        """
        if clock is None:
            self._read_clock = time.perf_counter
        elif callable(clock):
            self._read_clock = clock
        elif hasattr(clock, "now"):
            self._read_clock = lambda: float(clock.now)
        else:
            raise TypeError(
                "clock must be None, a zero-argument callable, or expose .now"
            )

    def reset(self) -> None:
        """Drop every finished span (counters keep advancing)."""
        with self._lock:
            self._spans.clear()

    # ----- spans --------------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span; a shared no-op when tracing is disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def current_span(self) -> Optional[Span]:
        return self._active.get()

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def finished_spans(self) -> List[Span]:
        """Finished spans in completion order (a snapshot copy)."""
        with self._lock:
            return list(self._spans)

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.finished_spans() if span.name == name]
