"""The process-wide tracer: nestable spans, typed counters, event ring.

Instrumentation across the toolchain — Flow stages, PassManager passes, DSE
candidate evaluation, the simulation testbenches — all reports into one
:class:`Tracer` (the module-level :data:`TRACER`).  Two design rules keep
it safe to leave in hot paths:

* **Off by default, ~free when off.**  ``span()`` returns a shared null
  context manager and ``count()``/``gauge()``/``event()`` return immediately
  when the tracer is disabled, so the only cost on the default path is one
  attribute check.
* **Thread-safe.**  Finished spans, counters and events are appended under a
  lock; the open-span stack is thread-local, so spans nest correctly per
  thread and carry a stable small ``tid``.

Export lives in :mod:`repro.obs.export` (Chrome ``trace_event`` JSON and a
human stats tree).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, List


class _NullSpan:
    """Shared no-op context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; records itself into the tracer on exit."""

    __slots__ = ("tracer", "name", "cat", "args", "_start", "_path")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start = 0.0
        self._path = ""

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes to the span while it is open."""
        self.args.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self._path = (f"{stack[-1]}/{self.name}" if stack else self.name)
        stack.append(self._path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        stack = self.tracer._stack()
        if stack and stack[-1] == self._path:
            stack.pop()
        self.tracer._record_span({
            "name": self.name,
            "cat": self.cat,
            "path": self._path,
            "ts": self._start - self.tracer.origin,
            "dur": end - self._start,
            "tid": self.tracer._tid(),
            "args": self.args,
        })


class Tracer:
    """Spans + counters + gauges + a bounded structured-event ring."""

    def __init__(self) -> None:
        self.enabled = False
        #: perf_counter value all span/event timestamps are relative to.
        self.origin = time.perf_counter()
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: The event ring keeps the latest 4096 events.
        self.events: Deque[Dict[str, Any]] = deque(maxlen=4096)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: Dict[int, int] = {}

    # -- bookkeeping ---------------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _tid(self) -> int:
        """Small, stable per-thread id (0 for the first thread seen)."""
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = len(self._tids)
                self._tids[ident] = tid
            return tid

    def _record_span(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self.spans.append(record)

    # -- switches ------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @contextmanager
    def activated(self, on: bool = True):
        """Enable the tracer for a ``with`` block (no-op when ``on`` is
        false or the tracer is already enabled — nesting never disables an
        outer activation)."""
        if not on or self.enabled:
            yield self
            return
        self.enable()
        try:
            yield self
        finally:
            self.disable()

    def clear(self) -> None:
        """Drop every recorded span/counter/gauge/event and restart the
        clock origin (enabled state is preserved)."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.gauges.clear()
            self.events.clear()
            self._tids.clear()
            self.origin = time.perf_counter()

    # -- recording -----------------------------------------------------------
    def span(self, name: str, cat: str = "", **args: Any):
        """A nestable timed region: ``with TRACER.span("flow.hir"): ...``."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, args)

    def count(self, name: str, delta: float = 1) -> None:
        """Add ``delta`` to the typed counter ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = value

    def event(self, name: str, cat: str = "", **args: Any) -> None:
        """Record an instant event into the bounded ring buffer."""
        if not self.enabled:
            return
        record = {
            "name": name,
            "cat": cat,
            "ts": time.perf_counter() - self.origin,
            "tid": self._tid(),
            "args": args,
        }
        with self._lock:
            self.events.append(record)


#: The process-wide tracer every subsystem reports into.
TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide :data:`TRACER`."""
    return TRACER


def enable_tracing() -> None:
    TRACER.enable()


def disable_tracing() -> None:
    TRACER.disable()


@contextmanager
def tracing(on: bool = True):
    """``with tracing(): ...`` — enable the global tracer for a block."""
    with TRACER.activated(on):
        yield TRACER


__all__ = [
    "TRACER",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "tracing",
]
