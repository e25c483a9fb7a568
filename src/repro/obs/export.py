"""Exporters for :class:`~repro.obs.tracer.Tracer` recordings.

Two formats, both derived from the same span/counter/event records:

* :func:`to_chrome_trace` — Chrome ``trace_event`` JSON (the ``{"traceEvents":
  [...]}`` array form), loadable in ``chrome://tracing`` and
  https://ui.perfetto.dev.  Spans become complete ``"X"`` events with
  microsecond timestamps, counters become ``"C"`` events, ring-buffer events
  become instants.
* :func:`stats_tree` — a human-readable tree aggregating spans by call path
  with counts and total/self time, plus the counter and gauge tables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.tracer import Tracer

#: Process id used for every exported event (single-process toolchain).
_PID = 1


# --------------------------------------------------------------------------- #
# Chrome trace_event
# --------------------------------------------------------------------------- #


def _span_events(spans: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    events = []
    for span in spans:
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": span.get("cat") or "span",
            "ts": round(span["ts"] * 1e6, 3),
            "dur": round(span["dur"] * 1e6, 3),
            "pid": _PID,
            "tid": span.get("tid", 0),
            "args": dict(span.get("args") or {}),
        })
    return events


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The tracer's records as a Chrome ``trace_event`` JSON object."""
    events = _span_events(tracer.spans)
    for record in tracer.events:
        events.append({
            "ph": "i",
            "s": "t",
            "name": record["name"],
            "cat": record.get("cat") or "event",
            "ts": round(record["ts"] * 1e6, 3),
            "pid": _PID,
            "tid": record.get("tid", 0),
            "args": dict(record.get("args") or {}),
        })
    end_ts = max((e["ts"] + e.get("dur", 0) for e in events), default=0.0)
    for name in sorted(tracer.counters):
        events.append({
            "ph": "C",
            "name": name,
            "cat": "counter",
            "ts": end_ts,
            "pid": _PID,
            "tid": 0,
            "args": {"value": tracer.counters[name]},
        })
    for name in sorted(tracer.gauges):
        events.append({
            "ph": "C",
            "name": name,
            "cat": "gauge",
            "ts": end_ts,
            "pid": _PID,
            "tid": 0,
            "args": {"value": tracer.gauges[name]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracer: Optional[Tracer] = None) -> str:
    """Write the Chrome trace JSON for ``tracer`` (default: the global
    :data:`~repro.obs.tracer.TRACER`) to ``path``; returns ``path``.

    Published atomically (write-then-rename): a crash mid-write can never
    leave a torn, half-JSON trace behind."""
    from repro.obs.tracer import TRACER
    from repro.store.io import atomic_write_json
    atomic_write_json(path, to_chrome_trace(tracer or TRACER), indent=1)
    return path


# --------------------------------------------------------------------------- #
# Human stats tree
# --------------------------------------------------------------------------- #


def stats_tree(tracer: Optional[Tracer] = None) -> str:
    """Aggregate spans by call path into an indented tree with counts and
    total time, followed by the counter and gauge tables."""
    from repro.obs.tracer import TRACER
    tracer = tracer or TRACER

    totals: Dict[str, List[float]] = {}  # path -> [count, seconds]
    for span in tracer.spans:
        path = span.get("path") or span["name"]
        entry = totals.setdefault(path, [0, 0.0])
        entry[0] += 1
        entry[1] += span["dur"]

    lines: List[str] = []
    if totals:
        lines.append("spans (count, total):")
        for path in sorted(totals):
            count, seconds = totals[path]
            depth = path.count("/")
            name = path.rsplit("/", 1)[-1]
            lines.append(f"  {'  ' * depth}{name:<{max(1, 36 - 2 * depth)}} "
                         f"x{int(count):<5} {seconds * 1e3:9.2f} ms")
    if tracer.counters:
        lines.append("counters:")
        for name in sorted(tracer.counters):
            value = tracer.counters[name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name:<40} {shown}")
    if tracer.gauges:
        lines.append("gauges:")
        for name in sorted(tracer.gauges):
            lines.append(f"  {name:<40} {tracer.gauges[name]}")
    if not lines:
        lines.append("(tracer has no recordings)")
    return "\n".join(lines)


__all__ = [
    "stats_tree",
    "to_chrome_trace",
    "write_chrome_trace",
]
