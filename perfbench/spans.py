"""In-memory span recorder, entry-point wrappers and self-time analysis.

The traced run times each layer of the program from the outside: the
launcher (``launch.py``) replaces a layer's public entry points with
wrappers that open a span around each call, then runs the ordinary
``repro`` command line.  Nothing under ``src/`` is changed.

A span is ``(pid, id, parent, rid, name, start_ns, end_ns)``.  The
parent comes from a context variable, so spans nest correctly across
threads and across interleaved asyncio tasks; ``rid`` is the id of the
span's root (the run, a pool cell, a served request or a server job).
Spans stay in memory and are written as JSON lines when the process
ends -- or, in a forked pool worker (which leaves through ``os._exit``
and never runs exit hooks), after every cell.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict

_current = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """Collects spans of one process and writes them to ``out_dir``."""

    def __init__(self, out_dir: str, probe=None):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        #: Zero-argument callable returning program counters (a dict of
        #: numbers) to record next to the spans at every flush.
        self.probe = probe
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._baseline = self.probe() if self.probe else {}

    def after_fork(self) -> None:
        """Drop the spans a forked child inherited from its parent."""
        _current.set(None)
        self._reset()

    def open(self, name: str):
        parent = _current.get()
        span_id = next(self._ids)
        if parent is None:
            parent_id, rid = 0, span_id
        else:
            parent_id, rid = parent
        token = _current.set((span_id, rid))
        return (span_id, parent_id, rid, name, token, time.perf_counter_ns())

    def close(self, opened) -> None:
        end = time.perf_counter_ns()
        span_id, parent_id, rid, name, token, start = opened
        _current.reset(token)
        self.spans.append((span_id, parent_id, rid, name, start, end))
        if parent_id == 0 and os.getpid() != self.main_pid:
            self.flush()

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self.open(name)
        try:
            yield
        finally:
            self.close(opened)

    def flush(self) -> None:
        """Append this process's spans (and counters) to its own file."""
        pid = os.getpid()
        path = os.path.join(self.out_dir, f"spans-{pid}.jsonl")
        with open(path, "a") as handle:
            for record in self.spans:
                handle.write(json.dumps((pid, *record)) + "\n")
            if self.probe:
                now = self.probe()
                delta = {k: now[k] - self._baseline.get(k, 0) for k in now}
                handle.write(json.dumps({"pid": pid, "counters": delta}) + "\n")
                self._baseline = now
        self.spans = []


def _wrap(fn, name: str, recorder: Recorder):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            opened = recorder.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.close(opened)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(opened)
    return wrapper


def _wrap_read_request(fn, name: str, recorder: Recorder):
    """Time request parsing from the first byte, not the keep-alive wait.

    ``read_request`` blocks on an idle keep-alive connection until the
    client sends its next request; the wrapper waits for the request
    line itself, then hands the parser a reader that replays it.
    """

    class _Replay:
        def __init__(self, reader, first: bytes):
            self._reader = reader
            self._first = first

        async def readline(self):
            if self._first is not None:
                line, self._first = self._first, None
                return line
            return await self._reader.readline()

        def __getattr__(self, attr):
            return getattr(self._reader, attr)

    @functools.wraps(fn)
    async def wrapper(reader):
        try:
            first = await reader.readline()
        except (ConnectionError, ValueError):
            return await fn(reader)
        if not first.strip():
            return await fn(_Replay(reader, first))
        opened = recorder.open(name)
        try:
            return await fn(_Replay(reader, first))
        finally:
            recorder.close(opened)

    return wrapper


def install(recorder: Recorder, targets) -> None:
    """Wrap every ``(name, module, attr, scope)`` target.

    ``attr`` is ``func`` or ``Class.method``.  A method is replaced in
    its class, so every instance sees the wrapper.  A function is
    replaced where callers look it up: with ``scope="everywhere"`` in
    every loaded ``repro`` module that bound it with ``from ... import``,
    with ``scope="module"`` only in ``module`` itself.
    """
    for name, module_name, attr, scope in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(_wrap(raw.__func__, name, recorder)))
            else:
                setattr(cls, meth, _wrap(raw, name, recorder))
            continue
        original = getattr(module, attr)
        if attr == "read_request":
            wrapper = _wrap_read_request(original, name, recorder)
        else:
            wrapper = _wrap(original, name, recorder)
        homes = [module]
        if scope == "everywhere":
            homes = [
                m for key, m in list(sys.modules.items())
                if m is not None
                and (key == "repro" or key.startswith("repro."))
            ]
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    setattr(home, key, wrapper)


# -- analysis -------------------------------------------------------------


def load(out_dir: str) -> tuple[list[dict], dict[str, float]]:
    """Read every span file of a run: (spans, summed counters)."""
    spans: list[dict] = []
    counters: dict[str, float] = defaultdict(float)
    for entry in sorted(os.listdir(out_dir)):
        if not entry.startswith("spans-"):
            continue
        with open(os.path.join(out_dir, entry)) as handle:
            for line in handle:
                record = json.loads(line)
                if isinstance(record, dict):
                    for key, value in record["counters"].items():
                        counters[key] += value
                    continue
                pid, span_id, parent, rid, name, start, end = record
                spans.append({
                    "pid": pid, "id": span_id, "parent": parent, "rid": rid,
                    "name": name, "start": start, "end": end,
                })
    return spans, dict(counters)


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of ``intervals``."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> None:
    """Set ``self`` (ns) on every span: its duration minus the part of
    it that its child spans cover."""
    children: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[(span["pid"], span["parent"])].append(
                (span["start"], span["end"])
            )
    for span in spans:
        kids = children.get((span["pid"], span["id"]), [])
        clipped = [
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in kids
            if e > span["start"] and s < span["end"]
        ]
        span["self"] = (span["end"] - span["start"]) - _covered(clipped)


def root_self_s(spans: list[dict], names) -> float:
    """Seconds inside the root spans named in ``names`` that no child
    span covers: the work no wrapped layer accounts for.

    A root is parentless, or a direct child of the launcher's ``run``
    span (a served request or job runs under it for the server's life).
    """
    names_by_id = {(s["pid"], s["id"]): s["name"] for s in spans}
    return sum(
        s["self"] for s in spans
        if s["name"] in names
        and names_by_id.get((s["pid"], s["parent"]), "run") == "run"
    ) / 1e9
