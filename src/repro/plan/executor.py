"""The plan executor: prime shared inputs once, then fan out cells.

One code path executes every compiled plan — ``repro experiment``,
``repro report``, ``repro warm``, and the service scheduler's evaluate
batches all land here:

1. **Collect** the shared-input union of all cells (traces, line-run
   streams, miss-mask geometry families) with demand counts.
2. **Prime** each input exactly once, in the parent process, under a
   ``plan-prime`` span: traces through the registry (memory/disk
   cache), streams through :func:`~repro.workloads.registry.
   get_line_runs`, and mask families through one cheetah-style
   :func:`~repro.plan.inputs.prime_miss_masks` call per (trace,
   stream) covering the union of geometries every experiment in the
   plan requested.  The line-order registry's entry bound is raised to
   hold the whole plan's streams for the duration (the byte budget
   stays in force as the memory cap).
3. **Dedup** cells whose function and arguments are identical across
   experiments; each unique cell runs once.
4. **Execute** the unique cells on :func:`~repro.runner.pool.
   run_cells`.  Priming happens before the pool forks, so workers
   inherit every warm memo copy-on-write and one trace walk serves
   the whole plan (on spawn-only platforms the cells recompute
   lazily — slower, never incorrect).
5. **Fan back** results in plan order and merge per experiment.

Plan-level dedup counters (``cells_total``, ``inputs_shared``,
``inputs_primed``, ...) ride on the returned
:class:`~repro.runner.timing.TimingReport` (the ``plan`` block of
``--timing-out``, which the service scheduler also exports on
``/metrics``) and on the ``plan-prime`` span.  Priming's phase
seconds are drained from the event stream
(:func:`repro.obs.tracing.take`) into the plan block's
``prime_phases``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence

from repro.caches.vectorized import configure_order_cache, order_cache_stats
from repro.obs import tracing
from repro.plan.compile import compile_module, compile_report
from repro.plan.inputs import prime_miss_masks
from repro.plan.ir import (
    PlanCell,
    PlanInputs,
    SweepPlan,
    collect_inputs,
    dedup_cells,
)
from repro.runner.pool import resolve_jobs, run_cells
from repro.runner.timing import TimingReport
from repro.workloads.registry import get_line_runs, get_trace

__all__ = [
    "execute_cells",
    "execute_plan",
    "run_experiment",
    "run_report",
]


def _prime_inputs(inputs: PlanInputs) -> int:
    """Prime every shared input once; returns the number primed.

    Order is deterministic (annotation insertion order) and layered:
    traces first, then their RLE streams, then the mask families over
    those streams — each layer's work is a memo hit for the next.
    """
    primed = 0
    for key in inputs.traces:
        get_trace(key.workload, key.os_name, key.n_instructions, key.seed)
        primed += 1
    for trace_key, line_size in inputs.streams:
        get_line_runs(
            trace_key.workload,
            trace_key.os_name,
            trace_key.n_instructions,
            trace_key.seed,
            line_size,
        )
        primed += 1
    for (trace_key, encode_size, mask_size), (shapes, _) in (
        inputs.masks.items()
    ):
        trace = get_trace(
            trace_key.workload,
            trace_key.os_name,
            trace_key.n_instructions,
            trace_key.seed,
        )
        prime_miss_masks(trace, {(encode_size, mask_size): shapes})
        primed += 1
    return primed


def execute_cells(
    cells: Sequence[PlanCell], jobs: int = 1, label: str = "plan"
) -> tuple[list, TimingReport]:
    """Execute plan cells with priming and dedup; results align with
    ``cells``.

    The returned :class:`TimingReport` carries the per-(unique-)cell
    timings plus the plan stats block; results are bit-identical to
    running every cell individually with no priming.
    """
    start = time.perf_counter()
    inputs = collect_inputs(cells)
    unique, index_map = dedup_cells(cells)
    stats = {
        "cells_total": len(cells),
        "cells_unique": len(unique),
        "inputs_total": inputs.total,
        "inputs_shared": inputs.shared,
        "inputs_primed": 0,
    }
    # The plan's streams must all fit the line-order registry or the
    # primed masks would evict each other before the cells run.  Each
    # mask family can occupy two entries (encode stream + coarsened
    # stream); the byte budget stays as the hard memory cap, under
    # which eviction only ever costs recompute, never correctness.
    previous_entries = order_cache_stats()["max_entries"]
    needed = len(inputs.streams) + len(inputs.masks) + 8
    try:
        if needed > previous_entries:
            configure_order_cache(max_entries=needed)
        if inputs.total:
            # Priming's phases are the events emitted from here on.
            tracing.take()
            prime_start = time.perf_counter()
            with tracing.span(
                "plan-prime",
                label=label,
                traces=len(inputs.traces),
                streams=len(inputs.streams),
                masks=len(inputs.masks),
            ):
                stats["inputs_primed"] = _prime_inputs(inputs)
            stats["prime_seconds"] = round(
                time.perf_counter() - prime_start, 6
            )
            # Unrounded, so TimingReport.phase_totals equals the sum
            # over the run's spans exactly.
            stats["prime_phases"] = tracing.take().get(tracing.PHASE, {})
        results_unique, cell_timings = run_cells(unique, jobs)
    finally:
        if needed > previous_entries:
            configure_order_cache(max_entries=previous_entries)
    results = [results_unique[index] for index in index_map]
    report = TimingReport(
        label=label,
        jobs=resolve_jobs(jobs),
        wall_seconds=time.perf_counter() - start,
        cells=tuple(cell_timings),
        plan=stats,
    )
    return results, report


def execute_plan(
    plan: SweepPlan, jobs: int = 1, label: str = "plan"
) -> tuple[list, TimingReport]:
    """Execute a whole plan; returns one merged result per experiment."""
    results, report = execute_cells(plan.cells, jobs, label=label)
    merged = []
    cursor = 0
    for experiment in plan.experiments:
        count = len(experiment.cells)
        merged.append(experiment.assemble(results[cursor : cursor + count]))
        cursor += count
    return merged, report


def run_experiment(
    module, settings, jobs: int = 1, label: str | None = None, **overrides
):
    """Run one experiment module through its compiled plan.

    The one way to run a single experiment: ``overrides`` reach the
    module's ``plan_cells`` and ``merge`` unchanged.  Returns
    ``(result, TimingReport)``.
    """
    if label is None:
        label = module.__name__.rsplit(".", 1)[-1]
    start = time.perf_counter()
    with tracing.span("experiment", label=label, jobs=resolve_jobs(jobs)):
        compiled = compile_module(module, settings, name=label, **overrides)
        plan = SweepPlan(experiments=(compiled,))
        [result], report = execute_plan(plan, jobs, label=label)
    return result, TimingReport(
        label=label,
        jobs=report.jobs,
        wall_seconds=time.perf_counter() - start,
        cells=report.cells,
        plan=report.plan,
    )


def run_report(
    modules: Mapping[str, object], settings, jobs: int = 1
) -> tuple[list[tuple[str, str]], TimingReport]:
    """Run many experiments as one grid-wide plan (``repro report``).

    Every module compiles into a single :class:`SweepPlan`, so shared
    inputs are primed once *across experiments* — one trace walk per
    (workload, stream) for the whole report — and identical cells
    appearing in several experiments run once.  Rendering happens in
    the parent, from each experiment's merged result.  Returns
    ``[(name, rendering), ...]`` in module order plus the timing
    report with the plan stats block.
    """
    start = time.perf_counter()
    plan = compile_report(modules, settings)
    results, report = execute_plan(plan, jobs, label="report")
    renderings = [
        (experiment.name, result.render())
        for experiment, result in zip(plan.experiments, results)
    ]
    return renderings, TimingReport(
        label="report",
        jobs=report.jobs,
        wall_seconds=time.perf_counter() - start,
        cells=report.cells,
        plan=report.plan,
    )
