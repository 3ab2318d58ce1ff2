"""Span-based structured tracing for the verification stack.

A :class:`Tracer` emits JSONL events with monotonic timestamps and a
hierarchical span context — flow → circuit-pair → obligation →
cascade-stage — so a run can be replayed as a timeline instead of a
flattened stats dict.  Every event is one JSON object per line; the
schema is defined (and validated) in :mod:`repro.obs.schema`.

Event kinds:

``meta``
    One per trace, emitted at construction: schema version plus free-form
    attributes (command line, circuit names, ...).
``span``
    A closed interval of work.  ``ts`` is the start (seconds since the
    tracer's epoch), ``dur`` its length, ``id``/``parent`` the hierarchy.
    Spans are emitted on *close*, so a crash loses at most the open spans.
``instant``
    A point event (sweep unit lost, budget expired, reorder picked, ...).
``metrics``
    A flattened metrics snapshot (see :mod:`repro.obs.metrics`), usually
    one at the end of an enclosing span.

The default tracer everywhere is :data:`NULL_TRACER`, whose spans are a
shared no-op object — the uninstrumented path does no formatting, no
clock reads beyond what the engine already did, and allocates nothing.

Worker processes build their own buffering tracer (``Tracer(sink=[])``)
against the parent's epoch (``CLOCK_MONOTONIC`` is system-wide on the
platforms the sweep forks on) and ship their event lists back with the
unit result; the parent re-parents them with :meth:`Tracer.adopt`.

:func:`export_chrome_trace` converts a JSONL trace into the Chrome
``trace_event`` format, so runs open directly in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_.
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Any, Dict, IO, Iterable, List, Optional, Sequence, Union

__all__ = [
    "Span",
    "NullSpan",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "coerce_tracer",
    "export_chrome_trace",
    "read_events",
]

#: Bumped on any incompatible change to the event shapes; readers ignore
#: traces written under a different version rather than misread them.
TRACE_SCHEMA_VERSION = 1


class Span:
    """A live span handle; close it (or use ``with``) to emit the event."""

    __slots__ = ("_tracer", "name", "cat", "id", "parent", "ts", "args", "_open")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        span_id: int,
        parent: Optional[int],
        ts: float,
        args: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.id = span_id
        self.parent = parent
        self.ts = ts
        self.args = args
        self._open = True

    def annotate(self, **args: Any) -> "Span":
        """Attach (or overwrite) attributes on the span before it closes."""
        self.args.update(args)
        return self

    def close(self) -> None:
        """Emit the span event (idempotent)."""
        if not self._open:
            return
        self._open = False
        self._tracer._close_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self.close()


class NullSpan:
    """The do-nothing span; a single shared instance backs NULL_TRACER."""

    __slots__ = ()

    id = None

    def annotate(self, **args: Any) -> "NullSpan":
        """Discard the annotation."""
        return self

    def close(self) -> None:
        """Do nothing; null spans have no lifetime."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = NullSpan()


class NullTracer:
    """API-compatible no-op tracer: the default for every instrumented API."""

    __slots__ = ()

    enabled = False
    epoch = 0.0

    def span(self, name: str, cat: str = "phase", **args: Any) -> NullSpan:
        """Return the shared do-nothing span."""
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "event", **args: Any) -> None:
        """Discard the instant event."""

    def metrics(self, values: Dict[str, Any], name: str = "metrics") -> None:
        """Discard the metrics snapshot."""

    def adopt(
        self,
        events: Sequence[Dict[str, Any]],
        parent: Union[None, int, Span, NullSpan] = None,
        **extra_args: Any,
    ) -> None:
        """Discard the worker events."""

    def close(self) -> None:
        """Do nothing; there is no buffer to flush."""


NULL_TRACER = NullTracer()


class Tracer:
    """JSONL span tracer with a hierarchical span stack.

    ``sink`` may be a list (events buffered as dicts — the worker mode), a
    writable text stream, or None with ``path`` naming a file to create.
    ``epoch`` anchors timestamps; workers pass the parent's epoch so their
    events land on the same timeline.
    """

    enabled = True

    def __init__(
        self,
        sink: Union[None, List[Dict[str, Any]], IO[str]] = None,
        path: Union[None, str, os.PathLike] = None,
        epoch: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if sink is not None and path is not None:
            raise ValueError("pass either sink or path, not both")
        self._owns_stream = False
        self._stream: Optional[IO[str]] = None
        self._buffer: Optional[List[Dict[str, Any]]] = None
        if path is not None:
            self._stream = open(os.fspath(path), "w", encoding="utf-8")
            self._owns_stream = True
        elif isinstance(sink, list):
            self._buffer = sink
        elif sink is not None:
            self._stream = sink
        else:
            self._buffer = []
        self.epoch = epoch if epoch is not None else time.monotonic()
        # Provenance: every event carries its origin process, so a trace
        # assembled from remote workers (TCP service) stays attributable
        # and multi-host Chrome exports land on distinct process tracks.
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self._next_id = 1
        self._stack: List[int] = []
        self.emit(
            {
                "type": "meta",
                "name": "trace-start",
                "ts": self.now(),
                "schema": TRACE_SCHEMA_VERSION,
                "args": dict(meta or {}),
            }
        )

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer's epoch (monotonic)."""
        return time.monotonic() - self.epoch

    def emit(self, record: Dict[str, Any]) -> None:
        """Append one event record to the sink.

        ``host``/``pid`` are stamped with setdefault: locally-created
        events get this tracer's identity, while adopted worker events
        keep the identity their origin tracer stamped.
        """
        record.setdefault("host", self.host)
        record.setdefault("pid", self.pid)
        if self._buffer is not None:
            self._buffer.append(record)
        elif self._stream is not None:
            self._stream.write(json.dumps(record, default=str) + "\n")

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The buffered events (empty when writing to a stream)."""
        return list(self._buffer or ())

    def close(self) -> None:
        """Close any open spans (innermost first) and the backing file."""
        while self._stack:
            # Abandoned spans still record their duration; mark them so.
            span_id = self._stack[-1]
            self.emit(
                {
                    "type": "instant",
                    "name": "trace.span-abandoned",
                    "cat": "event",
                    "ts": self.now(),
                    "parent": span_id,
                    "args": {},
                }
            )
            self._stack.pop()
        if self._stream is not None:
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()

    # ------------------------------------------------------------------
    # spans and events
    # ------------------------------------------------------------------
    def _current_parent(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, cat: str = "phase", **args: Any) -> Span:
        """Open a child span of the innermost open span."""
        span = Span(
            self,
            name,
            cat,
            self._next_id,
            self._current_parent(),
            self.now(),
            dict(args),
        )
        self._next_id += 1
        self._stack.append(span.id)
        return span

    def _close_span(self, span: Span) -> None:
        # Closing out of order (an inner span leaked) closes down to it.
        if span.id in self._stack:
            while self._stack and self._stack[-1] != span.id:
                self._stack.pop()
            self._stack.pop()
        self.emit(
            {
                "type": "span",
                "name": span.name,
                "cat": span.cat,
                "ts": span.ts,
                "dur": max(0.0, self.now() - span.ts),
                "id": span.id,
                "parent": span.parent,
                "args": span.args,
            }
        )

    def instant(self, name: str, cat: str = "event", **args: Any) -> None:
        """Emit a point event under the current span."""
        self.emit(
            {
                "type": "instant",
                "name": name,
                "cat": cat,
                "ts": self.now(),
                "parent": self._current_parent(),
                "args": dict(args),
            }
        )

    def metrics(self, values: Dict[str, Any], name: str = "metrics") -> None:
        """Emit a flattened metrics snapshot under the current span."""
        self.emit(
            {
                "type": "metrics",
                "name": name,
                "ts": self.now(),
                "parent": self._current_parent(),
                "args": dict(values),
            }
        )

    def adopt(
        self,
        events: Sequence[Dict[str, Any]],
        parent: Union[None, int, Span, NullSpan] = None,
        **extra_args: Any,
    ) -> None:
        """Merge a worker tracer's buffered events into this trace.

        Span ids are rebased into this tracer's id space and roots are
        re-parented under ``parent`` (a span or id); ``extra_args`` (e.g.
        the batch lane) are merged into every adopted event's args.
        """
        parent_id = parent.id if isinstance(parent, (Span, NullSpan)) else parent
        # Two passes: spans are emitted on close (children before their
        # parents), so parent references point at ids that appear *later*
        # in the buffer.  Assign all new ids first, then remap links.
        id_map: Dict[int, int] = {}
        for event in events:
            if event.get("type") == "meta":
                continue  # one meta per trace; worker metas are dropped
            old_id = event.get("id")
            if isinstance(old_id, int) and old_id not in id_map:
                id_map[old_id] = self._next_id
                self._next_id += 1
        for event in events:
            if event.get("type") == "meta":
                continue
            record = dict(event)
            old_id = record.get("id")
            if isinstance(old_id, int):
                record["id"] = id_map[old_id]
            old_parent = record.get("parent")
            if isinstance(old_parent, int) and old_parent in id_map:
                record["parent"] = id_map[old_parent]
            else:
                record["parent"] = parent_id
            if extra_args:
                args = dict(record.get("args") or {})
                args.update(extra_args)
                record["args"] = args
            self.emit(record)


def coerce_tracer(
    tracer: Union[None, Tracer, NullTracer]
) -> Union[Tracer, NullTracer]:
    """None → the shared null tracer; tracers pass through."""
    return NULL_TRACER if tracer is None else tracer


# ----------------------------------------------------------------------
# readers / exporters
# ----------------------------------------------------------------------
def read_events(
    source: Union[str, os.PathLike, Iterable[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    """Load events from a JSONL path (or pass a decoded list through).

    Unparseable lines are skipped — a truncated trace (crashed run) should
    still profile — but blank lines are ignored silently.
    """
    if not isinstance(source, (str, os.PathLike)):
        return list(source)
    events: List[Dict[str, Any]] = []
    with open(os.fspath(source), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                events.append(record)
    return events


def export_chrome_trace(
    source: Union[str, os.PathLike, Iterable[Dict[str, Any]]],
    out_path: Union[str, os.PathLike],
) -> int:
    """Convert a JSONL trace to Chrome ``trace_event`` JSON.

    Spans become complete (``ph="X"``) events in microseconds; instants
    become thread-scoped ``ph="i"`` marks.  Events carrying an integer
    ``lane`` arg — a batch job's span and the events adopted under it —
    land on thread track ``lane + 1``, so concurrent jobs never share a
    track; everything else is on track 0.  Each distinct ``(host, pid)``
    origin gets its own process track.  Returns the number of exported
    events.
    """
    events = read_events(source)
    trace_events: List[Dict[str, Any]] = []
    # (host, pid) -> Chrome pid, in first-seen order: the coordinator
    # (which wrote the meta event first) is process 0, exactly the pid
    # traces without provenance stamps get.
    origins: Dict[tuple, int] = {}
    for event in events:
        kind = event.get("type")
        args = event.get("args") or {}
        lane = args.get("lane")
        # Batch lanes on their own tracks; everything else on tid 0.
        tid = lane + 1 if isinstance(lane, int) else 0
        origin = (event.get("host"), event.get("pid"))
        pid = (
            0
            if origin == (None, None)
            else origins.setdefault(origin, len(origins))
        )
        ts_us = float(event.get("ts", 0.0)) * 1e6
        if kind == "span":
            trace_events.append(
                {
                    "ph": "X",
                    "name": str(event.get("name", "")),
                    "cat": str(event.get("cat", "")),
                    "ts": ts_us,
                    "dur": float(event.get("dur", 0.0)) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        elif kind == "instant":
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": str(event.get("name", "")),
                    "cat": str(event.get("cat", "")),
                    "ts": ts_us,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        elif kind == "metrics":
            numeric = {
                k: v for k, v in args.items() if isinstance(v, (int, float))
            }
            if numeric:
                trace_events.append(
                    {
                        "ph": "C",
                        "name": str(event.get("name", "metrics")),
                        "ts": ts_us,
                        "pid": pid,
                        "tid": tid,
                        "args": numeric,
                    }
                )
    with open(os.fspath(out_path), "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": trace_events}, handle)
    return len(trace_events)
