"""Span-based tracing and the one event stream every measurement uses.

The library measures itself through one channel: :func:`emit` of a
``(kind, key, amount)`` event, where ``kind`` is ``"phase"`` (net
seconds of a :func:`repro.runner.timing.phase` block),
``"dispatch"`` (a fetch-engine decision keyed ``(mechanism,
engine)``) or ``"trace-cache"`` (a trace-registry lookup outcome).
One :func:`emit` call feeds three consumers:

* this thread's per-cell accumulator, which the pool runner drains
  with :func:`take` around every experiment cell (the
  ``--timing-out`` report);
* the innermost open span, when a :class:`RunRecorder` is bound
  (run manifests and ``repro obs``);
* every process-wide sink registered with :func:`subscribe` (the
  serving tier's ``/metrics``).

Pool workers ship each cell's accumulated record back with its
result; the coordinating process feeds it to the sinks with
:func:`replay`, which skips spans because the shipped worker spans
already carry the same events.  The result is a single timeline
answering "where did this run's time go, per cell, per phase, per
engine" — the software analogue of the paper's logic analyzer on the
CPU pins.

Span recording is opt-in and scoped: spans are collected only while a
:class:`RunRecorder` is bound to the current thread (via :func:`run` or
:meth:`RunRecorder.bind`); otherwise :func:`span` is inert and costs a
thread-local read.  Pool worker processes capture their cells into
local recorders (see :func:`cell_capture`) and ship the finished span
records back with the cell results; the coordinating run re-parents
them under its own trace id with :meth:`RunRecorder.adopt`.

This module imports nothing from the rest of the library at module
scope, so every layer (the timing phases included) can emit without
import cycles.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Iterator

#: Per-span cap on discrete annotation events.  Aggregates (phases,
#: dispatch counts, cache outcomes) are unbounded dicts and never drop;
#: only the point-in-time event list is capped, with a drop counter.
MAX_EVENTS_PER_SPAN = 512

#: Event kinds carried by :func:`emit`.
PHASE = "phase"
DISPATCH = "dispatch"
TRACE_CACHE = "trace-cache"

_tls = threading.local()

#: Process-wide sinks, called with every emitted or replayed event.
#: Copy-on-write under ``_sinks_lock``: :func:`emit` iterates whichever
#: tuple it read, so a concurrent subscribe/unsubscribe can neither
#: skip a registered sink nor corrupt the sequence.
_sinks: tuple = ()
_sinks_lock = threading.Lock()

#: Process-global default for :func:`cell_capture`: pool workers set
#: this (via their initializer) so cells executed without an inherited
#: recorder still capture spans for shipping back to the coordinator.
_worker_capture = False


def new_trace_id() -> str:
    """A fresh 32-hex-character trace id."""
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


def _json_safe(value):
    """Coerce an attribute value to something JSON/pickle can carry."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return str(value)


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _active_recorder():
    recorder = getattr(_tls, "recorder", None)
    if recorder is not None and recorder.pid != os.getpid():
        # A forked pool worker inherited the parent's thread-local
        # state; that recorder collects in another process and must not
        # receive this process's spans.
        _tls.recorder = None
        _tls.stack = []
        return None
    return recorder


def active_recorder():
    """The recorder bound to this thread, or ``None``."""
    return _active_recorder()


def current_trace_id() -> str | None:
    """The trace id of the recorder bound to this thread, if any."""
    recorder = _active_recorder()
    return recorder.trace_id if recorder is not None else None


def current_span():
    """The innermost open span on this thread, or ``None``."""
    if _active_recorder() is None:
        return None
    stack = _stack()
    return stack[-1] if stack else None


class Span:
    """One open span: a named, attributed interval on the timeline.

    Aggregates the events emitted while it is the innermost span —
    net seconds per phase, dispatch decisions per (mechanism, engine),
    trace-cache outcome counts, as ``totals[kind][key]`` — plus a
    bounded list of discrete events.  Closed spans are plain dicts
    (picklable across the pool boundary).
    """

    __slots__ = (
        "name", "span_id", "parent_id", "attrs", "start", "pid", "thread",
        "events", "dropped_events", "totals", "_t0", "_cpu0",
    )

    def __init__(self, name: str, parent_id: str | None, attrs: dict):
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attrs = {key: _json_safe(value) for key, value in attrs.items()}
        self.pid = os.getpid()
        self.thread = threading.current_thread().name
        self.events: list[dict] = []
        self.dropped_events = 0
        self.totals: dict[str, dict] = {}
        self.start = time.time()
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()

    def add_event(self, name: str, **attrs) -> None:
        """Attach one point-in-time event to this span."""
        if len(self.events) >= MAX_EVENTS_PER_SPAN:
            self.dropped_events += 1
            return
        self.events.append(
            {"name": name, "time": time.time(), "attrs": attrs}
        )

    def set_attr(self, name: str, value) -> None:
        """Set (or overwrite) one span attribute."""
        self.attrs[name] = _json_safe(value)

    def finish(self, trace_id: str) -> dict:
        """Close the span and return its JSON-ready record."""
        # Lazy: the timing module imports this one at module scope.
        from repro.runner.timing import _nest_dispatch

        totals = self.totals
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": trace_id,
            "pid": self.pid,
            "thread": self.thread,
            "start": self.start,
            "wall_seconds": time.perf_counter() - self._t0,
            "cpu_seconds": time.thread_time() - self._cpu0,
            "attrs": self.attrs,
            "events": self.events,
            "phases": dict(totals.get(PHASE, {})),
            "engine_dispatch": _nest_dispatch(totals.get(DISPATCH, {})),
            "trace_cache": dict(totals.get(TRACE_CACHE, {})),
        }
        if self.dropped_events:
            record["dropped_events"] = self.dropped_events
        return record


class RunRecorder:
    """Collects the finished spans of one traced run.

    Thread-safe: executor threads and re-parented worker spans all
    append through :meth:`record`.  ``on_span`` (if given) fires with
    each finished span record — the serving tier hangs its span-latency
    histograms on it.
    """

    def __init__(
        self,
        label: str,
        trace_id: str | None = None,
        on_span=None,
    ):
        self.label = label
        self.trace_id = trace_id or new_trace_id()
        self.pid = os.getpid()
        self.started_at = time.time()
        self.on_span = on_span
        self._lock = threading.Lock()
        self._spans: list[dict] = []

    @property
    def spans(self) -> list[dict]:
        """The finished span records so far (a copy)."""
        with self._lock:
            return list(self._spans)

    def record(self, record: dict) -> None:
        """Append one finished span record."""
        with self._lock:
            self._spans.append(record)
        if self.on_span is not None:
            self.on_span(record)

    def adopt(self, records, parent_id: str | None = None) -> None:
        """Re-parent spans shipped back from a worker process.

        Every record joins this run's trace id; records whose parent is
        not among the shipped batch (the worker's roots) are re-parented
        under ``parent_id`` — the coordinating span that scheduled the
        worker's cell.
        """
        shipped = {record["span_id"] for record in records}
        for record in records:
            adopted = dict(record)
            adopted["trace_id"] = self.trace_id
            if adopted.get("parent_id") not in shipped:
                adopted["parent_id"] = parent_id
            self.record(adopted)

    @contextmanager
    def bind(self) -> Iterator["RunRecorder"]:
        """Collect spans opened on the current thread.

        Executor threads use this to join a run that was started
        elsewhere (thread-locals do not cross ``run_in_executor``).
        """
        previous = getattr(_tls, "recorder", None)
        _tls.recorder = self
        try:
            yield self
        finally:
            _tls.recorder = previous


@contextmanager
def span(name: str, **attrs) -> Iterator[Span | None]:
    """Open one span under the current run; inert without a recorder."""
    recorder = _active_recorder()
    if recorder is None:
        yield None
        return
    stack = _stack()
    parent_id = stack[-1].span_id if stack else None
    current = Span(name, parent_id, attrs)
    stack.append(current)
    try:
        yield current
    finally:
        stack.pop()
        recorder.record(current.finish(recorder.trace_id))


@contextmanager
def run(
    label: str,
    trace_id: str | None = None,
    on_span=None,
    **attrs,
) -> Iterator[RunRecorder]:
    """Trace one run: bind a fresh recorder and open its root span."""
    recorder = RunRecorder(label, trace_id=trace_id, on_span=on_span)
    attrs.setdefault("kind", "run")
    with recorder.bind():
        with span(label, **attrs):
            yield recorder


# -- pool-worker capture ----------------------------------------------


def enable_worker_capture(enabled: bool = True) -> None:
    """Default :func:`cell_capture` to a local recorder in this process.

    Pool worker initializers call this when the coordinating run is
    traced, so cells capture spans for shipping even though the parent's
    recorder does not cross the process boundary.
    """
    global _worker_capture
    _worker_capture = bool(enabled)


class CellSpans:
    """Holder for span records captured around one pool cell.

    ``records`` is non-empty only when the cell ran under a local
    (worker-side) recorder; cells traced live into the coordinating
    run's recorder ship nothing.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records: list[dict] = []


@contextmanager
def cell_capture(key: tuple, attrs: dict | None = None) -> Iterator[CellSpans]:
    """Trace one experiment cell, wherever it executes.

    In the coordinating process (a bound recorder is active) the cell
    becomes a live ``cell`` span.  In a pool worker with capture enabled
    the cell records into a local recorder whose spans are returned for
    shipping; the parent re-parents them with :meth:`RunRecorder.adopt`.
    With tracing inactive this is a no-op.
    """
    attrs = dict(attrs or {})
    attrs["key"] = _json_safe(list(key))
    holder = CellSpans()
    if _active_recorder() is not None:
        with span("cell", **attrs):
            yield holder
        return
    if not _worker_capture:
        yield holder
        return
    local = RunRecorder("cell", trace_id="unadopted")
    with local.bind():
        with span("cell", **attrs):
            yield holder
    holder.records = local.spans


# -- the event stream -------------------------------------------------


def _event_attrs(kind: str, key, amount) -> dict:
    """The attributes of one emitted event's span annotation."""
    if kind == PHASE:
        return {"phase": key, "seconds": amount}
    if kind == DISPATCH:
        return {"mechanism": key[0], "engine": key[1], "count": amount}
    return {"result": key}


def emit(kind: str, key, amount=1) -> None:
    """Record one measurement event.

    Adds ``amount`` under ``key`` to this thread's per-cell accumulator
    (drained by :func:`take`), to the innermost open span when a
    recorder is bound, and calls every subscribed sink with
    ``(kind, key, amount)``.
    """
    events = getattr(_tls, "events", None)
    if events is None:
        events = _tls.events = {}
    bucket = events.setdefault(kind, {})
    bucket[key] = bucket.get(key, 0) + amount
    current = current_span()
    if current is not None:
        bucket = current.totals.setdefault(kind, {})
        bucket[key] = bucket.get(key, 0) + amount
        current.add_event(kind, **_event_attrs(kind, key, amount))
    for sink in _sinks:
        sink(kind, key, amount)


def take() -> dict[str, dict]:
    """This thread's accumulated events as ``{kind: {key: amount}}``,
    resetting the accumulator."""
    events = getattr(_tls, "events", None)
    _tls.events = {}
    return events or {}


def replay(record: dict[str, dict]) -> None:
    """Feed a record from :func:`take` (shipped back by a pool worker)
    to the sinks only.

    Spans and the accumulator are skipped: the worker's shipped spans
    and its cell timing already carry these events.
    """
    sinks = _sinks
    for kind, bucket in record.items():
        for key, amount in bucket.items():
            for sink in sinks:
                sink(kind, key, amount)


def subscribe(sink) -> None:
    """Call ``sink(kind, key, amount)`` on every event of this process.

    Sinks see events from every thread, plus worker records replayed by
    the pool runner; they must be cheap and must not raise.
    Idempotent.
    """
    global _sinks
    with _sinks_lock:
        if sink not in _sinks:
            _sinks = _sinks + (sink,)


def unsubscribe(sink) -> None:
    """Remove a sink installed by :func:`subscribe` (no-op if absent)."""
    global _sinks
    with _sinks_lock:
        _sinks = tuple(other for other in _sinks if other != sink)


def drop_inherited_sinks() -> None:
    """Start a freshly forked process with no sinks.

    A forked pool worker inherits its parent's sinks, but its events
    reach them through the parent's :func:`replay`; calling them in the
    worker too would update copies that die with it.  The lock is
    replaced, not taken: a parent thread may have held it at fork time.
    """
    global _sinks, _sinks_lock
    _sinks = ()
    _sinks_lock = threading.Lock()
