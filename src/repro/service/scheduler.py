"""Job scheduling for the simulation server.

Every job, whatever its kind, runs through one lifecycle between the
HTTP layer and the compute layer (:mod:`repro.plan.executor`):

* **Submit** — :meth:`JobScheduler._submit`: identical requests (same
  canonical content key) arriving while a job is in flight attach to
  the existing job instead of re-running it (single-flight
  coalescing); a key already in the content-addressed
  :class:`~repro.service.store.ResultStore` completes at once as a
  recorded hit; anything else passes admission control and is marked
  in flight.
* **Execute** — :meth:`JobScheduler._execute_eval_batch` runs one
  :class:`_Batch` of jobs on a small thread pool (which itself fans
  out over the process pool when ``jobs > 1``), so the asyncio event
  loop stays free to accept and answer requests.  The batch's work is
  traced end to end and written to a run manifest.
* **Settle** — :meth:`JobScheduler._settle` fans the results back to
  their jobs, writes the store, and handles failure, cancellation and
  the ``job_finished`` log line.

An experiment submission is a batch of one whose work is
:func:`~repro.plan.executor.run_experiment`.  Compatible ``evaluate``
requests (same OS/trace-length/seed signature, i.e. same synthesized
traces) that arrive in the same event-loop iteration form one pending
batch, flushed on the next iteration: it compiles into one sweep plan
(see :func:`evaluate_group_cells`) executed by
:func:`~repro.plan.executor.execute_cells`, so a burst of point
queries shares trace synthesis, primed miss masks, and the process
pool.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
import uuid
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.config import MemorySystemConfig
from repro.core.study import evaluate_trace
from repro.experiments.common import (
    ExperimentSettings,
    canonical_job_key,
    fetch_point,
    settings_record,
)
from repro.obs import tracing
from repro.obs.logs import log_event
from repro.obs.manifest import build_manifest, write_manifest
from repro.plan import inputs as plan_inputs
from repro.plan.executor import execute_cells, run_experiment
from repro.plan.ir import PlanCell
from repro.runner.timing import TimingReport

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Admission states reported on ``/healthz``.
ACCEPTING = "accepting"
SHEDDING = "shedding"
DRAINING = "draining"

_job_counter = itertools.count(1)


class AdmissionError(Exception):
    """The scheduler refused new work (queue full or draining).

    Carries the ``Retry-After`` hint the HTTP layer sends with the 429:
    a service-time estimate of when a slot is likely to free up.
    """

    def __init__(self, message: str, retry_after: int = 1):
        super().__init__(message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class EvaluateRequest:
    """One point query: a workload against a named configuration."""

    workload: str
    os_name: str
    config_name: str
    mechanism: str
    settings: ExperimentSettings

    @property
    def batch_signature(self) -> tuple:
        """Requests sharing this signature share synthesized traces."""
        return (
            self.settings.n_instructions,
            self.settings.seed,
            self.settings.warmup_fraction,
        )

    @property
    def group_key(self) -> tuple:
        """Requests sharing this key run as one cell over one trace.

        Grouping by workload/OS (and engine) lets a flush evaluate all
        of a workload's requested points against a single loaded trace,
        sharing its RLE streams and memoized miss masks.
        """
        return (self.workload, self.os_name, self.settings.engine)

    def key(self) -> str:
        # settings_record (inside canonical_job_key) omits the engine:
        # the differential tests pin both engines bit-identical, so
        # requests differing only in engine coalesce and share stored
        # results.
        return canonical_job_key(
            "evaluate",
            self.workload,
            self.settings,
            extra={
                "os": self.os_name,
                "config": self.config_name,
                "mechanism": self.mechanism,
            },
        )


class Job:
    """One unit of served work, shared by every coalesced caller."""

    def __init__(
        self, key: str, kind: str, name: str, trace_id: str | None = None
    ):
        self.id = f"job-{next(_job_counter):06d}-{uuid.uuid4().hex[:8]}"
        self.key = key
        self.kind = kind
        self.name = name
        self.trace_id = trace_id or tracing.new_trace_id()
        self.manifest: str | None = None
        self.status = PENDING
        self.created_at = time.time()
        self.finished_at: float | None = None
        self.coalesced = 0
        self.source: str | None = None  # "executed" | "store"
        self.result: dict | None = None
        self.rendering: str | None = None
        self.error: str | None = None
        self._event = asyncio.Event()

    async def wait(self) -> None:
        """Block until the job reaches a terminal state."""
        await self._event.wait()

    @property
    def finished(self) -> bool:
        return self.status in (DONE, FAILED, CANCELLED)

    # The three terminal transitions return whether this call made it:
    # the first verdict stands (a drain's 'cancelled' survives a late
    # completion), and only the call that made it logs the job.

    def _complete(
        self, result: dict, rendering: str | None, source: str
    ) -> bool:
        if self.finished:
            return False
        self.result = result
        self.rendering = rendering
        self.source = source
        return self._finish(DONE)

    def _fail(self, error: str) -> bool:
        if self.finished:
            return False
        self.error = error
        return self._finish(FAILED)

    def _cancel(self) -> bool:
        """Terminal 'cancelled' state: shutdown arrived before the work."""
        if self.finished:
            return False
        self.error = "cancelled by server shutdown"
        return self._finish(CANCELLED)

    def _finish(self, status: str) -> bool:
        self.status = status
        self.finished_at = time.time()
        self._event.set()
        return True

    def to_dict(self, include_result: bool = True) -> dict:
        record = {
            "id": self.id,
            "key": self.key,
            "kind": self.kind,
            "name": self.name,
            "trace_id": self.trace_id,
            "manifest": self.manifest,
            "status": self.status,
            "coalesced": self.coalesced,
            "source": self.source,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if include_result and self.result is not None:
            record["result"] = self.result
        return record


def _evaluate_group_cell(
    workload: str,
    os_name: str,
    engine: str,
    points: tuple[tuple[str, str], ...],
    n_instructions: int,
    seed: int,
    warmup_fraction: float,
) -> list[dict]:
    """Module-level (picklable) compute function for one evaluate group.

    Evaluates every requested ``(config, mechanism)`` point of one
    workload against a single loaded trace, so a burst of point queries
    shares trace synthesis *and* the per-stream miss-mask memoization.
    Returns one payload per point, aligned with ``points``.
    """
    from repro.workloads.registry import get_trace

    trace = get_trace(workload, os_name, n_instructions, seed)
    payloads = []
    for config_name, mechanism in points:
        result = evaluate_trace(
            trace,
            MemorySystemConfig.named(config_name),
            mechanism=mechanism,
            warmup_fraction=warmup_fraction,
            engine=engine,
        )
        # The payload format is engine-independent on purpose: results
        # are bit-identical across engines and may be served from the
        # store to a request that asked for the other engine.
        payloads.append({
            "kind": "evaluate",
            "name": workload,
            "os": os_name,
            "config": config_name,
            "mechanism": mechanism,
            "settings": {
                "n_instructions": n_instructions,
                "seed": seed,
                "warmup_fraction": warmup_fraction,
            },
            "metrics": {
                "mpi": result.l1.mpi,
                "l2_mpi": result.l2_mpi,
                "cpi_l1": result.cpi_l1,
                "cpi_l2": result.cpi_l2,
                "cpi_instr": result.cpi_instr,
            },
        })
    return payloads


def evaluate_group_cells(
    requests: list[EvaluateRequest],
) -> tuple[dict[tuple, list[int]], list[PlanCell]]:
    """Compile point requests into annotated plan cells.

    One cell per ``(workload, OS, engine)`` group: all of a workload's
    requested points evaluate against a single loaded trace.  Each cell
    declares its shared inputs — the trace, the L1/L2 line-run streams,
    and the demand-mask families its points consult — so the plan
    executor primes them once before the pool forks.  Returns the
    group-to-request-indices mapping (in first-seen order, matching the
    cell list) alongside the cells; both the scheduler's evaluate
    flush and ``repro warm`` build their batches here.
    """
    groups: dict[tuple, list[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(request.group_key, []).append(index)
    cells = []
    for group_key, indices in groups.items():
        workload, os_name, engine = group_key
        settings = requests[indices[0]].settings
        points = [
            fetch_point(
                (requests[i].config_name, requests[i].mechanism),
                MemorySystemConfig.named(requests[i].config_name),
                requests[i].mechanism,
            )
            for i in indices
        ]
        cells.append(
            PlanCell(
                key=group_key,
                fn=_evaluate_group_cell,
                args=(
                    workload,
                    os_name,
                    engine,
                    tuple(
                        (requests[i].config_name, requests[i].mechanism)
                        for i in indices
                    ),
                    settings.n_instructions,
                    settings.seed,
                    settings.warmup_fraction,
                ),
                traces=plan_inputs.workload_trace_keys(
                    [(workload, os_name)], settings
                ),
                streams=plan_inputs.point_streams(points),
                masks=plan_inputs.mask_families(points, engine),
            )
        )
    return groups, cells


@dataclass
class _Batch:
    """One unit of executor work and the jobs it settles.

    ``work()`` runs on an executor thread inside the batch's traced run
    and returns ``(results, TimingReport)``, one result per job in
    ``jobs`` order; ``finish(result, report)`` turns a job's result
    into its ``(payload, rendering)``.
    """

    kind: str
    label: str
    jobs: list[Job]
    work: Callable[[], tuple[list, TimingReport]]
    finish: Callable[[object, TimingReport], tuple[dict, str | None]]
    run_attrs: dict
    manifest_extra: dict


class JobScheduler:
    """Coalescing, batching dispatcher onto the pool runner."""

    def __init__(
        self,
        store,
        metrics,
        *,
        jobs: int = 1,
        max_inflight: int = 4,
        max_queue: int | None = None,
        max_finished_jobs: int = 1024,
        obs_dir: str | None = None,
        worker: dict | None = None,
    ):
        self.store = store
        self.metrics = metrics
        self.jobs = jobs
        self.obs_dir = obs_dir
        #: Serving-process identity (pid, worker index, worker count),
        #: stamped into every job manifest so a loadgen trace can
        #: attribute a job's latency to the worker that ran it.
        self.worker = worker
        if max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if max_queue is not None and max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        #: Executor threads concurrently executing jobs.
        self.max_inflight = max_inflight
        #: Admitted-but-not-finished jobs allowed beyond ``max_inflight``
        #: (``None`` = unbounded, the pre-admission-control behaviour).
        self.max_queue = max_queue
        self._draining = False
        self._executing = 0
        self._counters_lock = threading.Lock()
        # Decayed mean job latency, feeding the Retry-After estimate.
        self._avg_job_seconds = 0.0
        # Every finished span of a traced job lands in a per-span-name
        # latency histogram, so /metrics exposes the span-derived
        # breakdown (run vs cell vs evaluate) alongside phase_seconds.
        self._span_observer = lambda record: self.metrics.observe(
            "span_seconds", record["wall_seconds"], {"span": record["name"]}
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-job"
        )
        self._inflight: dict[str, Job] = {}
        self._jobs: dict[str, Job] = {}
        self._pending_eval: dict[tuple, list[tuple[EvaluateRequest, Job]]] = {}
        self._settling: set[asyncio.Task] = set()
        self._max_finished_jobs = max_finished_jobs
        # Live measurement feed: every event of the process (and the
        # pool's replay of worker cells) lands in /metrics as it
        # happens, not only at job completion.
        tracing.subscribe(self._on_event)

    def _on_event(self, kind: str, key, amount) -> None:
        """Map one event-stream event onto its ``/metrics`` series.

        Phases feed the ``phase_seconds`` histograms; engine-dispatch
        decisions count into ``engine_dispatch_total``, so a kernel
        coverage regression shows up as reference-engine traffic rather
        than as unexplained latency; trace-cache outcomes count into
        ``trace_cache_lookups_total``, exposing cold-path synthesis
        pressure directly.
        """
        if kind == tracing.PHASE:
            self.metrics.observe("phase_seconds", amount, {"phase": key})
        elif kind == tracing.DISPATCH:
            mechanism, engine = key
            self.metrics.inc(
                "engine_dispatch_total",
                {"mechanism": mechanism, "engine": engine},
                amount,
            )
        elif kind == tracing.TRACE_CACHE:
            self.metrics.inc(
                "trace_cache_lookups_total", {"result": key}, amount
            )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Detach from the event stream and stop the worker threads.

        Idempotent; safe after :meth:`drain`.  Does not wait for
        in-flight work — the graceful path is ``await drain()`` first.
        """
        self._draining = True
        tracing.unsubscribe(self._on_event)
        self._executor.shutdown(wait=False, cancel_futures=True)

    async def drain(self, timeout: float | None = None) -> dict:
        """Stop admitting, flush batches, and settle every in-flight job.

        New submissions shed with 503-style :class:`AdmissionError`
        immediately.  Pending evaluate batches flush now rather than on
        the next loop iteration.  Jobs still unfinished after ``timeout``
        seconds are marked ``cancelled`` (their executor futures are
        cancelled where still queued; a body already on a thread runs to
        completion but its result is discarded by the terminal-state
        guard).  Returns ``{"finished": n, "cancelled": n}``.
        """
        self._draining = True
        for signature in list(self._pending_eval):
            self._flush_evaluates(signature)
        pending = [job for job in self._inflight.values() if not job.finished]
        if pending:
            waiters = [
                asyncio.ensure_future(job.wait()) for job in pending
            ]
            _done, not_done = await asyncio.wait(waiters, timeout=timeout)
            for waiter in not_done:
                waiter.cancel()
        cancelled = 0
        for job in list(self._inflight.values()):
            if job._cancel():
                cancelled += 1
                self._job_finished(job)
            self._inflight.pop(job.key, None)
        self._executor.shutdown(wait=False, cancel_futures=True)
        return {"finished": len(pending) - cancelled, "cancelled": cancelled}

    # -- introspection -------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Jobs submitted but not yet finished."""
        return len(self._inflight)

    @property
    def inflight_count(self) -> int:
        """Jobs currently executing on the worker threads."""
        return self._executing

    @property
    def queued_count(self) -> int:
        """Admitted jobs waiting for a worker thread."""
        return max(0, len(self._inflight) - self._executing)

    @property
    def admission_state(self) -> str:
        """``accepting`` | ``shedding`` | ``draining`` (for /healthz)."""
        if self._draining:
            return DRAINING
        if self._over_capacity():
            return SHEDDING
        return ACCEPTING

    def _over_capacity(self) -> bool:
        if self.max_queue is None:
            return False
        return len(self._inflight) >= self.max_queue + self.max_inflight

    def _retry_after(self) -> int:
        """Seconds until a queue slot plausibly frees up, clamped [1, 60].

        Little's-law flavoured estimate: occupancy times the decayed
        mean job latency, divided by the worker width.
        """
        if self._avg_job_seconds <= 0:
            return 1
        estimate = (
            len(self._inflight) * self._avg_job_seconds / self.max_inflight
        )
        return max(1, min(60, int(estimate + 0.5)))

    def _admit(self) -> None:
        """Gate one new-work submission; raises when over capacity."""
        if self._draining:
            self.metrics.inc("admission_total", {"decision": "shed"})
            raise AdmissionError("server is draining", self._retry_after())
        if self._over_capacity():
            self.metrics.inc("admission_total", {"decision": "shed"})
            raise AdmissionError(
                f"queue full ({len(self._inflight)} jobs in flight, "
                f"max_queue={self.max_queue}, "
                f"max_inflight={self.max_inflight})",
                self._retry_after(),
            )
        self.metrics.inc("admission_total", {"decision": "accepted"})

    def _jobs_started(self, created_ats: list[float]) -> None:
        """Executor-thread entry bookkeeping: queue wait + inflight."""
        now = time.time()
        with self._counters_lock:
            self._executing += len(created_ats)
        for created_at in created_ats:
            self.metrics.observe(
                "queue_wait_seconds", max(0.0, now - created_at)
            )

    def _jobs_settled(self, jobs_settled: int, job_seconds: float) -> None:
        with self._counters_lock:
            self._executing = max(0, self._executing - jobs_settled)
            # EWMA with a 0.2 step: responsive to load shifts, stable
            # under jitter; feeds the Retry-After estimate only.
            if self._avg_job_seconds == 0.0:
                self._avg_job_seconds = job_seconds
            else:
                self._avg_job_seconds += 0.2 * (
                    job_seconds - self._avg_job_seconds
                )

    def get_job(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        # Bound the finished-job ledger so a long-lived server doesn't
        # accumulate every job ever answered.
        if len(self._jobs) > self._max_finished_jobs:
            for stale_id, stale in list(self._jobs.items()):
                if stale.finished:
                    del self._jobs[stale_id]
                if len(self._jobs) <= self._max_finished_jobs:
                    break

    # -- submission ----------------------------------------------------

    def _submit(
        self, kind: str, key: str, name: str, trace_id: str | None
    ) -> tuple[Job, bool]:
        """Coalesce, register, check the store, admit, mark in flight.

        Returns the job and whether it was newly admitted — only then
        does the caller hand it work to run.  A coalesced job or a
        store hit comes back ready to wait on; a shed submission raises
        :class:`AdmissionError` and leaves no job behind.
        """
        job = self._inflight.get(key)
        if job is not None:
            job.coalesced += 1
            self.metrics.inc("jobs_coalesced_total")
            self.metrics.inc("admission_total", {"decision": "coalesced"})
            return job, False
        job = Job(key, kind, name, trace_id=trace_id)
        self._register(job)
        self.metrics.inc("jobs_submitted_total", {"kind": kind})
        payload = self.store.get(key)
        if payload is not None:
            self.metrics.inc("result_store_hits_total")
            # A store hit costs no compute, so it is always admitted —
            # even while shedding; that is what makes a warmed tier ride
            # out overload.
            self.metrics.inc("admission_total", {"decision": "store-hit"})
            job._complete(payload, self.store.get_rendering(key), "store")
            return job, False
        self.metrics.inc("result_store_misses_total")
        try:
            self._admit()
        except AdmissionError:
            # Shed before the job ever entered the queue; drop it from
            # the ledger so the 429'd request leaves no pending ghost.
            self._jobs.pop(job.id, None)
            raise
        self._inflight[key] = job
        job.status = RUNNING
        return job, True

    async def submit_experiment(
        self,
        name: str,
        module,
        settings: ExperimentSettings,
        trace_id: str | None = None,
    ) -> Job:
        """Submit one experiment module run: a batch of one job."""
        job, admitted = self._submit(
            "experiment",
            canonical_job_key("experiment", name, settings),
            name,
            trace_id,
        )
        if not admitted:
            return job

        def work():
            result, report = run_experiment(module, settings, self.jobs, name)
            return [result], report

        def finish(result, report) -> tuple[dict, str]:
            payload = {
                "kind": "experiment",
                "name": name,
                "trace_id": job.trace_id,
                "settings": settings_record(settings),
                "wall_seconds": report.wall_seconds,
                "phase_totals": report.phase_totals,
            }
            return payload, result.render()

        self._start(
            _Batch(
                kind="experiment",
                label=name,
                jobs=[job],
                work=work,
                finish=finish,
                run_attrs={"job": job.id, "kind": "experiment"},
                manifest_extra={
                    "job": job.id,
                    "key": job.key,
                    "settings": settings_record(settings),
                },
            )
        )
        return job

    async def submit_evaluate(
        self, request: EvaluateRequest, trace_id: str | None = None
    ) -> Job:
        """Submit one point evaluation (coalesced, then batched)."""
        job, admitted = self._submit(
            "evaluate", request.key(), request.workload, trace_id
        )
        if not admitted:
            return job
        signature = request.batch_signature
        pending = self._pending_eval.setdefault(signature, [])
        pending.append((request, job))
        if len(pending) == 1:
            # Every compatible request landing before the flush — in
            # this loop iteration — joins the batch.
            asyncio.get_running_loop().call_soon(
                self._flush_evaluates, signature
            )
        return job

    def _flush_evaluates(self, signature: tuple) -> None:
        batch = self._pending_eval.pop(signature, [])
        if not batch:
            return
        self.metrics.inc("eval_batches_total")
        self.metrics.observe("eval_batch_size", len(batch))
        requests = [request for request, _job in batch]

        def work():
            # One cell per (workload, OS, engine): all of a workload's
            # requested points share one trace and its memoized masks.
            groups, cells = evaluate_group_cells(requests)
            results, report = execute_cells(
                cells, self.jobs, label="evaluate-batch"
            )
            payloads = [None] * len(requests)
            for indices, group_payloads in zip(groups.values(), results):
                for index, payload in zip(indices, group_payloads):
                    payloads[index] = payload
            return payloads, report

        jobs = [job for _request, job in batch]
        # The flush is one traced run under the first job's trace id (a
        # one-request batch — the common case — therefore carries the
        # requesting client's id); the manifest lists every coalesced
        # request with its own trace id and key.
        self._start(
            _Batch(
                kind="evaluate",
                label="evaluate-batch",
                jobs=jobs,
                work=work,
                finish=lambda payload, _report: (payload, None),
                run_attrs={"batch_size": len(jobs)},
                manifest_extra={
                    "requests": [
                        {"job": job.id, "trace_id": job.trace_id,
                         "key": job.key}
                        for job in jobs
                    ],
                },
            )
        )

    # -- execution -----------------------------------------------------

    def _start(self, batch: _Batch) -> None:
        task = asyncio.ensure_future(self._settle(batch))
        # The loop holds tasks weakly; keep each one until it settles.
        self._settling.add(task)
        task.add_done_callback(self._settling.discard)

    def _finish_manifest(self, recorder, extra: dict) -> str | None:
        """Write one run manifest under ``obs_dir`` (if configured)."""
        if self.obs_dir is None:
            return None
        if self.worker is not None:
            extra = {**extra, "worker": self.worker}
        manifest = build_manifest(recorder, extra=extra)
        return write_manifest(manifest, self.obs_dir)

    def _record_plan_stats(self, stats: dict | None) -> None:
        """Fold one executed plan's dedup counters into ``/metrics``."""
        if not stats:
            return
        self.metrics.inc("plan_cells_total", amount=stats["cells_total"])
        self.metrics.inc(
            "plan_cells_deduped_total",
            amount=stats["cells_total"] - stats["cells_unique"],
        )
        self.metrics.inc(
            "plan_inputs_shared_total", amount=stats["inputs_shared"]
        )
        self.metrics.inc(
            "plan_inputs_primed_total", amount=stats["inputs_primed"]
        )

    def _execute_eval_batch(self, batch: _Batch):
        """Executor-thread body of every batch, traced end to end.

        Runs on a worker thread (thread-locals do not cross
        ``run_in_executor``), so the recorder must be bound *here*, not
        on the event loop.  Returns ``(results, report, manifest)``.
        """
        self._jobs_started([job.created_at for job in batch.jobs])
        started = time.perf_counter()
        try:
            with tracing.run(
                batch.label,
                trace_id=batch.jobs[0].trace_id,
                on_span=self._span_observer,
                **batch.run_attrs,
            ) as recorder:
                results, report = batch.work()
            self._record_plan_stats(report.plan)
        finally:
            self._jobs_settled(
                len(batch.jobs), time.perf_counter() - started
            )
        manifest_path = self._finish_manifest(
            recorder,
            extra={
                "command": "serve",
                "kind": batch.kind,
                **batch.manifest_extra,
                "jobs": self.jobs,
            },
        )
        return results, report, manifest_path

    async def _settle(self, batch: _Batch) -> None:
        """Run ``batch`` on an executor thread and settle its jobs."""
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        try:
            results, report, manifest_path = await loop.run_in_executor(
                self._executor, self._execute_eval_batch, batch
            )
            settled = [batch.finish(result, report) for result in results]
        except asyncio.CancelledError:
            # Shutdown cancelled the executor future before (or while)
            # the body ran; report the jobs cancelled, never silent.
            seconds = round(time.perf_counter() - start, 6)
            for job in batch.jobs:
                if job._cancel():
                    self._job_finished(job, seconds=seconds, manifest=None)
            raise
        except Exception as exc:
            seconds = round(time.perf_counter() - start, 6)
            for job in batch.jobs:
                self.metrics.inc("jobs_failed_total", {"kind": batch.kind})
                if job._fail(str(exc)):
                    self._job_finished(
                        job, seconds=seconds, manifest=None, error=str(exc)
                    )
            return
        elapsed = time.perf_counter() - start
        for job, (payload, rendering) in zip(batch.jobs, settled):
            job.manifest = manifest_path
            self.store.put(job.key, payload, rendering)
            self.metrics.inc("jobs_executed_total", {"kind": batch.kind})
            if job._complete(payload, rendering, "executed"):
                self._job_finished(
                    job, seconds=round(elapsed, 6), manifest=manifest_path
                )
        self.metrics.observe("job_seconds", elapsed, {"kind": batch.kind})

    def _job_finished(self, job: Job, **fields) -> None:
        """Drop a settled job from the in-flight set and log it."""
        self._inflight.pop(job.key, None)
        log_event(
            "job_finished",
            trace_id=job.trace_id,
            job=job.id,
            kind=job.kind,
            name=job.name,
            status=job.status,
            **fields,
        )
