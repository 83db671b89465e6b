"""Unit tests for the coalescing/batching job scheduler."""

import asyncio
import io
import json
import types

import pytest

from repro.experiments import table2
from repro.experiments.common import ExperimentSettings
from repro.obs import logs
from repro.plan.ir import PlanCell
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import EvaluateRequest, JobScheduler
from repro.service.store import ResultStore
from repro.workloads.registry import get_trace

SETTINGS = ExperimentSettings(n_instructions=20_000, seed=0)

#: An experiment whose one cell loads an unknown workload's trace.
BROKEN_EXPERIMENT = types.SimpleNamespace(
    __name__="broken",
    plan_cells=lambda settings: [
        PlanCell(
            key=("no-such-workload", "mach3"),
            fn=get_trace,
            args=(
                "no-such-workload", "mach3", settings.n_instructions,
                settings.seed,
            ),
        )
    ],
)


def _run(coroutine):
    return asyncio.run(coroutine)


def _evaluate_request(workload="gcc", config="economy", mechanism="demand"):
    return EvaluateRequest(
        workload=workload,
        os_name="mach3",
        config_name=config,
        mechanism=mechanism,
        settings=SETTINGS,
    )


@pytest.fixture
def make_scheduler(tmp_path):
    """Factory building schedulers that share one persistent store."""
    created = []

    def build(**kwargs):
        store = ResultStore(tmp_path / "results")
        scheduler = JobScheduler(store, ServiceMetrics(), **kwargs)
        created.append(scheduler)
        return scheduler

    yield build
    for scheduler in created:
        scheduler.close()


class TestExperimentJobs:
    def test_coalesced_single_flight(self, make_scheduler):
        scheduler = make_scheduler()

        async def body():
            first, second = await asyncio.gather(
                scheduler.submit_experiment("table2", table2, SETTINGS),
                scheduler.submit_experiment("table2", table2, SETTINGS),
            )
            await asyncio.gather(first.wait(), second.wait())
            return first, second

        first, second = _run(body())
        assert first is second  # one job served both callers
        assert first.status == "done"
        assert first.coalesced == 1
        assert first.source == "executed"
        assert "Table 2" in first.rendering
        metrics = scheduler.metrics
        assert metrics.counter_value(
            "jobs_executed_total", {"kind": "experiment"}) == 1
        assert metrics.counter_value("jobs_coalesced_total") == 1
        assert metrics.counter_value(
            "jobs_submitted_total", {"kind": "experiment"}) == 1

    def test_store_hit_after_restart(self, make_scheduler):
        warm = make_scheduler()

        async def run_once(scheduler):
            job = await scheduler.submit_experiment("table2", table2, SETTINGS)
            await job.wait()
            return job

        executed = _run(run_once(warm))
        assert executed.source == "executed"

        # A fresh scheduler + store instance over the same directory
        # simulates a cold server restart.
        cold = make_scheduler()
        replayed = _run(run_once(cold))
        assert replayed.status == "done"
        assert replayed.source == "store"
        assert replayed.rendering == executed.rendering
        assert cold.metrics.counter_value("result_store_hits_total") == 1
        assert cold.metrics.counter_value(
            "jobs_executed_total", {"kind": "experiment"}) == 0

    def test_job_lookup_and_queue_depth(self, make_scheduler):
        scheduler = make_scheduler()

        async def body():
            job = await scheduler.submit_experiment("table2", table2, SETTINGS)
            assert scheduler.get_job(job.id) is job
            assert scheduler.get_job("nope") is None
            await job.wait()
            return job

        _run(body())
        assert scheduler.queue_depth == 0

    def test_phase_histograms_fed(self, make_scheduler):
        scheduler = make_scheduler()

        async def body():
            job = await scheduler.submit_evaluate(_evaluate_request("nroff"))
            await job.wait()

        _run(body())
        histograms = scheduler.metrics.to_dict()["histograms"]
        assert "job_seconds" in histograms
        # Every evaluation runs the simulator under a timing phase, so
        # the live timing feed must have landed in the histograms.
        assert any(
            series["labels"] == {"phase": "simulate"} and series["count"] > 0
            for series in histograms.get("phase_seconds", [])
        )


class TestEvaluateJobs:
    def test_compatible_requests_batch(self, make_scheduler):
        scheduler = make_scheduler()
        requests = [
            _evaluate_request("gcc"),
            _evaluate_request("sdet"),
            _evaluate_request("gcc", config="high-performance"),
        ]

        async def body():
            jobs = await asyncio.gather(
                *(scheduler.submit_evaluate(r) for r in requests)
            )
            await asyncio.gather(*(job.wait() for job in jobs))
            return jobs

        jobs = _run(body())
        assert all(job.status == "done" for job in jobs)
        assert len({job.key for job in jobs}) == 3
        metrics = scheduler.metrics
        # Same batch signature → one run_cells dispatch for all three.
        assert metrics.counter_value("eval_batches_total") == 1
        assert metrics.counter_value(
            "jobs_executed_total", {"kind": "evaluate"}) == 3
        cpi = jobs[0].result["metrics"]["cpi_instr"]
        assert cpi > 1.0

    def test_batched_matches_direct_evaluate(self, make_scheduler):
        from repro.core.config import MemorySystemConfig
        from repro.core.study import evaluate

        scheduler = make_scheduler()

        async def body():
            job = await scheduler.submit_evaluate(_evaluate_request("gcc"))
            await job.wait()
            return job

        job = _run(body())
        direct = evaluate(
            "gcc", "mach3", MemorySystemConfig.economy(),
            n_instructions=SETTINGS.n_instructions, seed=SETTINGS.seed,
            warmup_fraction=SETTINGS.warmup_fraction,
        )
        assert job.result["metrics"]["cpi_instr"] == pytest.approx(
            direct.cpi_instr
        )

    def test_identical_evaluates_coalesce(self, make_scheduler):
        scheduler = make_scheduler()

        async def body():
            first, second = await asyncio.gather(
                scheduler.submit_evaluate(_evaluate_request("gcc")),
                scheduler.submit_evaluate(_evaluate_request("gcc")),
            )
            await first.wait()
            return first, second

        first, second = _run(body())
        assert first is second
        assert scheduler.metrics.counter_value(
            "jobs_executed_total", {"kind": "evaluate"}) == 1

    @pytest.mark.parametrize("kind", ["evaluate", "experiment"])
    def test_failure_names_cell(self, make_scheduler, kind):
        # Both job kinds settle a failed batch the same way.
        scheduler = make_scheduler()

        async def body():
            if kind == "evaluate":
                job = await scheduler.submit_evaluate(
                    _evaluate_request("no-such-workload")
                )
            else:
                job = await scheduler.submit_experiment(
                    "broken", BROKEN_EXPERIMENT, SETTINGS
                )
            await job.wait()
            return job

        stream = io.StringIO()
        logs.configure(stream)
        try:
            job = _run(body())
        finally:
            logs.configure(None)
        assert job.status == "failed"
        # The CellExecutionError wrap names the failing cell identity.
        assert "no-such-workload" in job.error
        assert scheduler.metrics.counter_value(
            "jobs_failed_total", {"kind": kind}) == 1
        assert scheduler.queue_depth == 0
        (finished,) = [
            record
            for record in map(json.loads, stream.getvalue().splitlines())
            if record["event"] == "job_finished"
        ]
        assert finished["kind"] == kind
        assert finished["status"] == "failed"
        assert finished["error"] == job.error


class TestDispatchMetrics:
    def test_engine_dispatch_counted(self, make_scheduler):
        """Fetch simulations land in engine_dispatch_total — and a
        mechanism that used to fall back to the reference engines now
        counts as vectorized (full kernel coverage)."""
        scheduler = make_scheduler()

        async def body():
            job = await scheduler.submit_evaluate(
                _evaluate_request(mechanism="victim")
            )
            await job.wait()
            return job

        job = _run(body())
        assert job.status == "done"
        assert scheduler.metrics.counter_value(
            "engine_dispatch_total",
            {"mechanism": "victim", "engine": "vectorized"},
        ) >= 1
        assert scheduler.metrics.counter_value(
            "engine_dispatch_total",
            {"mechanism": "victim", "engine": "reference"},
        ) == 0


class TestPoolReplayMetrics:
    def test_jobs2_counts_match_jobs1(self, tmp_path):
        """Pool workers' events reach /metrics through the pool's replay:
        the same experiment counts the same trace-cache lookups and
        engine dispatches at jobs=2 as in-process at jobs=1."""
        from repro.experiments import figure7

        settings = ExperimentSettings(n_instructions=20_000, seed=3)
        totals = {}
        for jobs in (1, 2):
            scheduler = JobScheduler(
                ResultStore(tmp_path / f"jobs{jobs}"), ServiceMetrics(),
                jobs=jobs,
            )

            async def body():
                job = await scheduler.submit_experiment(
                    "figure7", figure7, settings
                )
                await job.wait()
                return job

            try:
                job = _run(body())
            finally:
                scheduler.close()
            assert job.status == "done"
            counters = scheduler.metrics.to_dict()["counters"]
            totals[jobs] = {
                name: sum(series["value"] for series in counters[name])
                for name in (
                    "trace_cache_lookups_total", "engine_dispatch_total"
                )
            }
        assert totals[1]["trace_cache_lookups_total"] > 0
        assert totals[1]["engine_dispatch_total"] > 0
        assert totals[2] == totals[1]
