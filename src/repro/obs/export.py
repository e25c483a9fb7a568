"""Exporters for :class:`~repro.obs.tracer.Tracer` recordings.

Three formats, all derived from the same span/counter/event records:

* :func:`to_chrome_trace` — Chrome ``trace_event`` JSON (the ``{"traceEvents":
  [...]}`` array form), loadable in ``chrome://tracing`` and
  https://ui.perfetto.dev.  Spans become complete ``"X"`` events with
  microsecond timestamps, counters become ``"C"`` events, ring-buffer events
  become instants.
* :func:`to_jsonl_lines` / :func:`write_jsonl` — a flat, line-per-record JSON
  log (kind-tagged), convenient for grep and downstream tooling.  The JSONL
  form is lossless: :func:`chrome_trace_from_jsonl` rebuilds the exact Chrome
  trace from it (the round-trip the tier-1 suite asserts).
* :func:`stats_tree` — a human-readable tree aggregating spans by call path
  with counts and total/self time, plus the counter and gauge tables.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

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
# JSONL
# --------------------------------------------------------------------------- #


def to_jsonl_lines(tracer: Tracer) -> List[str]:
    """One kind-tagged JSON object per line (spans, events, counters,
    gauges), in deterministic order."""
    lines = []
    for span in tracer.spans:
        lines.append(json.dumps({"kind": "span", **span}, sort_keys=True))
    for record in tracer.events:
        lines.append(json.dumps({"kind": "event", **record}, sort_keys=True))
    for name in sorted(tracer.counters):
        lines.append(json.dumps({"kind": "counter", "name": name,
                                 "value": tracer.counters[name]},
                                sort_keys=True))
    for name in sorted(tracer.gauges):
        lines.append(json.dumps({"kind": "gauge", "name": name,
                                 "value": tracer.gauges[name]},
                                sort_keys=True))
    return lines


def write_jsonl(path: str, tracer: Optional[Tracer] = None) -> str:
    from repro.obs.tracer import TRACER
    from repro.store.io import atomic_write_text
    lines = to_jsonl_lines(tracer or TRACER)
    return atomic_write_text(path, "".join(line + "\n" for line in lines))


def read_jsonl(source: Any) -> List[Dict[str, Any]]:
    """Parse JSONL records from a path or an iterable of lines."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            lines: Iterable[str] = handle.readlines()
    else:
        lines = source
    return [json.loads(line) for line in lines if line.strip()]


def chrome_trace_from_jsonl(records: Sequence[Mapping[str, Any]]
                            ) -> Dict[str, Any]:
    """Rebuild the Chrome trace from JSONL records (lossless round-trip:
    equals :func:`to_chrome_trace` of the tracer the JSONL came from)."""
    replay = Tracer()
    for record in records:
        kind = record.get("kind")
        if kind == "span":
            replay.spans.append({key: value for key, value in record.items()
                                 if key != "kind"})
        elif kind == "event":
            replay.events.append({key: value for key, value in record.items()
                                  if key != "kind"})
        elif kind == "counter":
            replay.counters[record["name"]] = record["value"]
        elif kind == "gauge":
            replay.gauges[record["name"]] = record["value"]
    return to_chrome_trace(replay)


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
    "chrome_trace_from_jsonl",
    "read_jsonl",
    "stats_tree",
    "to_chrome_trace",
    "to_jsonl_lines",
    "write_chrome_trace",
    "write_jsonl",
]
