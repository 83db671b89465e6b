"""Engine-dispatch accounting: events, sinks, and report plumbing.

:func:`repro.core.study.fetch_result` emits which engine (vectorized
kernel or reference fallback) ran each fetch simulation as a
``"dispatch"`` event on the :mod:`repro.obs.tracing` stream.  These
tests pin the accounting end to end: the per-thread accumulator and
the process-wide sinks the serving tier hangs metrics on, the
recording site, and the ``engine_dispatch`` sections of the runner's
timing reports.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.core.study import fetch_result
from repro.fetch import ECONOMY_MEMORY, dispatch
from repro.obs import tracing
from repro.plan.ir import PlanCell
from repro.runner.pool import run_cells
from repro.runner.timing import CellTiming, TimingReport, _nest_dispatch


@pytest.fixture(autouse=True)
def _clean_dispatch():
    tracing.take()
    yield
    tracing.take()


def _record(mechanism: str, engine: str, count: int = 1) -> None:
    tracing.emit(tracing.DISPATCH, (mechanism, engine), count)


def _dispatches() -> dict:
    """The dispatch counts accumulated on this thread (drains it)."""
    return tracing.take().get(tracing.DISPATCH, {})


class TestAccumulators:
    def test_record_and_snapshot(self):
        _record("demand", dispatch.ENGINE_VECTORIZED)
        _record("demand", dispatch.ENGINE_VECTORIZED)
        _record("victim", dispatch.ENGINE_REFERENCE)
        snap = _dispatches()
        assert snap[("demand", dispatch.ENGINE_VECTORIZED)] == 2
        assert snap[("victim", dispatch.ENGINE_REFERENCE)] == 1

    def test_snapshot_reset(self):
        seen = []
        sink = lambda kind, key, amount: seen.append((kind, key, amount))
        tracing.subscribe(sink)
        try:
            _record("demand", dispatch.ENGINE_VECTORIZED)
        finally:
            tracing.unsubscribe(sink)
        first = tracing.take()
        assert first
        assert tracing.take() == {}
        # Sinks saw the event independently of the accumulator.
        assert seen == [
            (tracing.DISPATCH, ("demand", dispatch.ENGINE_VECTORIZED), 1)
        ]

    def test_observers(self):
        seen = []
        sink = lambda kind, key, amount: seen.append((key, amount))
        tracing.subscribe(sink)
        try:
            _record("markov", dispatch.ENGINE_VECTORIZED, count=3)
        finally:
            tracing.unsubscribe(sink)
        _record("markov", dispatch.ENGINE_VECTORIZED)
        assert seen == [(("markov", dispatch.ENGINE_VECTORIZED), 3)]

    def test_notify_merges_worker_counts(self):
        # A worker cell's record, replayed in the coordinator, reaches
        # the sinks but not this thread's accumulator.
        seen = []
        sink = lambda kind, key, amount: seen.append((kind, key, amount))
        tracing.subscribe(sink)
        try:
            tracing.replay(
                {tracing.DISPATCH: {("demand", dispatch.ENGINE_REFERENCE): 5}}
            )
        finally:
            tracing.unsubscribe(sink)
        assert seen == [
            (tracing.DISPATCH, ("demand", dispatch.ENGINE_REFERENCE), 5)
        ]
        assert tracing.take() == {}

    def test_concurrent_observer_churn_while_recording(self):
        # Subscriptions must be safe against concurrent mutation while
        # another thread emits: a registered sink is never skipped.
        stop = threading.Event()
        errors = []

        def churn():
            def sink(kind, key, amount):
                pass
            try:
                while not stop.is_set():
                    tracing.subscribe(sink)
                    tracing.unsubscribe(sink)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        seen = []
        keeper = lambda kind, key, amount: seen.append(amount)
        tracing.subscribe(keeper)
        threads = [threading.Thread(target=churn) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for _ in range(300):
                _record("demand", dispatch.ENGINE_VECTORIZED)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
            tracing.unsubscribe(keeper)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(seen) == 300
        assert _dispatches()[("demand", dispatch.ENGINE_VECTORIZED)] == 300

    def test_observer_may_reenter_counters(self):
        # Sinks run outside the subscription lock: a one-shot sink that
        # unsubscribes itself from inside the callback must not
        # deadlock, and stays silent afterwards.
        seen = []

        def once(kind, key, amount):
            seen.append(key)
            tracing.unsubscribe(once)

        tracing.subscribe(once)
        _record("demand", dispatch.ENGINE_VECTORIZED)
        _record("demand", dispatch.ENGINE_VECTORIZED)
        assert seen == [("demand", dispatch.ENGINE_VECTORIZED)]

    def test_as_report_nests_by_engine(self):
        report = _nest_dispatch({
            ("demand", dispatch.ENGINE_VECTORIZED): 2,
            ("victim", dispatch.ENGINE_REFERENCE): 1,
        })
        assert report == {
            dispatch.ENGINE_VECTORIZED: {"demand": 2},
            dispatch.ENGINE_REFERENCE: {"victim": 1},
        }


class TestRecordingSite:
    CONFIG = MemorySystemConfig(
        name="dispatch", l1=CacheGeometry(8192, 32, 1), memory=ECONOMY_MEMORY
    )

    def test_fetch_result_records_engine(self, small_trace):
        runs = small_trace.ifetch_line_runs(32)
        fetch_result(runs, self.CONFIG, "demand", engine="vectorized")
        fetch_result(runs, self.CONFIG, "demand", engine="reference")
        fetch_result(runs, self.CONFIG, "victim", engine="auto")
        snap = _dispatches()
        assert snap[("demand", dispatch.ENGINE_VECTORIZED)] == 1
        assert snap[("demand", dispatch.ENGINE_REFERENCE)] == 1
        # Full kernel coverage: auto routes victim to the kernels now.
        assert snap[("victim", dispatch.ENGINE_VECTORIZED)] == 1
        assert ("victim", dispatch.ENGINE_REFERENCE) not in snap


def _dispatching_cell(mechanism: str, engine: str) -> int:
    _record(mechanism, engine)
    return 1


class TestReportPlumbing:
    def test_run_cells_captures_dispatch(self):
        cells = [
            PlanCell(
                key=("a",), fn=_dispatching_cell,
                args=("demand", dispatch.ENGINE_VECTORIZED),
            ),
            PlanCell(
                key=("b",), fn=_dispatching_cell,
                args=("victim", dispatch.ENGINE_REFERENCE),
            ),
        ]
        _results, timings = run_cells(cells, jobs=1)
        assert timings[0].dispatch == {
            ("demand", dispatch.ENGINE_VECTORIZED): 1
        }
        assert timings[1].dispatch == {
            ("victim", dispatch.ENGINE_REFERENCE): 1
        }

    def test_timing_report_aggregates_and_serializes(self):
        cells = (
            CellTiming(
                key=("a",), wall_seconds=0.5,
                dispatch={("demand", "vectorized"): 2},
            ),
            CellTiming(
                key=("b",), wall_seconds=0.5,
                dispatch={
                    ("demand", "vectorized"): 1,
                    ("victim", "reference"): 4,
                },
            ),
        )
        report = TimingReport(
            label="x", jobs=1, wall_seconds=1.0, cells=cells
        )
        assert report.dispatch_totals == {
            ("demand", "vectorized"): 3,
            ("victim", "reference"): 4,
        }
        record = report.to_dict()
        assert record["engine_dispatch"] == {
            "vectorized": {"demand": 3},
            "reference": {"victim": 4},
        }
        assert record["cells"][0]["engine_dispatch"] == {
            "vectorized": {"demand": 2}
        }
