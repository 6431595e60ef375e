"""Trace exporters: JSONL, Chrome trace-event JSON, text summary tree.

* :func:`write_jsonl` / :func:`read_jsonl` — one event object per line,
  lossless round trip of the tracer's native schema.
* :func:`to_chrome` / :func:`write_chrome` — the Chrome trace-event
  format (the ``{"traceEvents": [...]}`` JSON object), loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Spans
  become complete (``"ph": "X"``) events, instants become thread-scoped
  instant (``"ph": "i"``) events; timestamps are microseconds relative
  to the earliest event.
* :func:`summary` — a human-readable aggregation: the span tree with
  accumulated wall time and call counts, instant counts attached to
  their enclosing span.

``write_trace`` picks the exporter from the file extension (``.jsonl``,
``.txt``/``.tree``, anything else: Chrome JSON) — the CLI's ``--trace
FILE`` goes through it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.trace.tracer import Event, Tracer

#: pid stamped on every exported Chrome event (one logical process).
CHROME_PID = 1


def _events(source) -> List[Event]:
    return source.events if isinstance(source, Tracer) else list(source)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def write_jsonl(source, path: str) -> int:
    """Write one event per line; returns the number of events written."""
    events = _events(source)
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")
    return len(events)


def read_jsonl(path: str) -> List[Event]:
    """Parse a JSONL trace back into the native event list."""
    events: List[Event] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------

def to_chrome(source, process_name: str = "hsis") -> Dict[str, Any]:
    """Convert to the Chrome trace-event JSON object."""
    events = sorted(_events(source), key=lambda e: e["ts"])
    epoch = events[0]["ts"] if events else 0.0
    out: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": CHROME_PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": process_name},
        }
    ]
    for event in events:
        converted: Dict[str, Any] = {
            "name": event["name"],
            "cat": event.get("cat") or "trace",
            "ph": event["ph"],
            "ts": (event["ts"] - epoch) * 1e6,
            "pid": CHROME_PID,
            "tid": event.get("tid", 0),
            "args": event.get("args", {}),
        }
        if event["ph"] == "X":
            converted["dur"] = event["dur"] * 1e6
        elif event["ph"] == "i":
            converted["s"] = "t"  # thread-scoped instant
        out.append(converted)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome(source, path: str, process_name: str = "hsis") -> int:
    """Write Chrome trace JSON; returns the number of events exported."""
    payload = to_chrome(source, process_name=process_name)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(payload["traceEvents"]) - 1  # minus the metadata record


def load_chrome(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def validate_chrome(payload: Dict[str, Any]) -> List[str]:
    """Spec-check a Chrome trace object; returns a list of problems."""
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for i, event in enumerate(events):
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                problems.append(f"event {i} lacks required field {field!r}")
        ph = event.get("ph")
        if ph == "X" and "dur" not in event:
            problems.append(f"complete event {i} ({event.get('name')}) lacks dur")
        if ph == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append(f"instant event {i} ({event.get('name')}) has bad scope")
    return problems


# ----------------------------------------------------------------------
# Text summary tree
# ----------------------------------------------------------------------

class _Agg:
    __slots__ = ("seconds", "calls", "instants", "children", "order")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.instants: Dict[str, int] = {}
        self.children: Dict[str, "_Agg"] = {}
        self.order: List[str] = []

    def child(self, name: str) -> "_Agg":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Agg()
            self.order.append(name)
        return node


def summary(source, title: str = "trace summary") -> str:
    """Aggregate the span tree per tid lane into an indented report."""
    by_tid: Dict[int, List[Event]] = {}
    for event in sorted(_events(source), key=lambda e: (e.get("tid", 0), e["ts"])):
        by_tid.setdefault(event.get("tid", 0), []).append(event)
    lines = [f"{title}:"]
    if not by_tid:
        lines.append("  (no events)")
        return "\n".join(lines)
    for tid in sorted(by_tid):
        root = _Agg()
        path: List[str] = []
        for event in by_tid[tid]:
            depth = event.get("depth", 0)
            del path[depth:]
            node = root
            for name in path:
                node = node.child(name)
            if event["ph"] == "X":
                span = node.child(event["name"])
                span.seconds += event["dur"]
                span.calls += 1
                path.append(event["name"])
            else:
                node.instants[event["name"]] = (
                    node.instants.get(event["name"], 0) + 1
                )
        if len(by_tid) > 1:
            lines.append(f"  [lane {tid}]")
        _render(root, lines, indent=2 + (2 if len(by_tid) > 1 else 0))
    return "\n".join(lines)


def _render(node: _Agg, lines: List[str], indent: int) -> None:
    pad = " " * indent
    for name, count in sorted(node.instants.items()):
        lines.append(f"{pad}* {name} x{count}")
    for name in node.order:
        child = node.children[name]
        lines.append(f"{pad}{name}  {child.seconds:.3f}s  x{child.calls}")
        _render(child, lines, indent + 2)


# ----------------------------------------------------------------------
# Extension dispatch
# ----------------------------------------------------------------------

def write_trace(source, path: str) -> str:
    """Write ``source`` to ``path`` in the format its extension implies.

    ``.jsonl`` — JSONL event log; ``.txt``/``.tree`` — text summary;
    everything else — Chrome trace JSON.  Returns the format used.
    """
    lower = path.lower()
    if lower.endswith(".jsonl"):
        write_jsonl(source, path)
        return "jsonl"
    if lower.endswith((".txt", ".tree")):
        with open(path, "w") as handle:
            handle.write(summary(source))
            handle.write("\n")
        return "summary"
    write_chrome(source, path)
    return "chrome"


def safe_write_trace(source, path: str) -> Tuple[Optional[str], Optional[str]]:
    """:func:`write_trace` that reports failure instead of raising.

    Returns ``(format, None)`` on success and ``(None, reason)`` when
    the file cannot be written (unwritable directory, read-only file,
    disk full).  Both the CLI's ``--trace FILE`` and the serve layer's
    per-job trace files go through this, so a bad trace path surfaces
    as a clear one-line error and never aborts the run that produced
    the events.
    """
    try:
        return write_trace(source, path), None
    except OSError as exc:
        return None, f"cannot write trace file {path!r}: {exc}"
