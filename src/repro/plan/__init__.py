"""Declarative sweep-plan IR and its executor.

The paper's results are ~30 figure/table grids over one small set of
workloads.  Instead of each experiment hand-rolling its loop (and
re-walking traces, RLE streams, and miss masks its siblings already
computed), an experiment *compiles* into the sweep-plan IR: a list of
:class:`~repro.plan.ir.PlanCell` — one ``(workload, os, config,
engine)`` unit each — annotated with the shared inputs it consumes
(trace, line-run stream, miss-mask geometry family).  A single
executor (:mod:`repro.plan.executor`) primes each shared input exactly
once per plan — cheetah-style ``miss_masks()`` across the union of
geometries requested by *all* experiments in the plan — then fans the
deduplicated cells onto the existing :mod:`repro.runner.pool`.

The plan is each experiment's only specification: a module exports
``plan_cells`` (plus ``merge`` when it has several cells) and nothing
else.  ``repro report``, ``repro experiment``, ``repro warm``, the
service scheduler's evaluate batches, tests, examples and benchmarks
all execute through this package, and
:func:`~repro.plan.executor.run_experiment` is the one way to run a
single experiment.
"""

from repro.plan.ir import (
    CompiledExperiment,
    MaskFamily,
    PlanCell,
    PlanInputs,
    SweepPlan,
    TraceKey,
)
from repro.plan.inputs import (
    DEMAND_MASK_MECHANISMS,
    mask_families,
    mask_shape_plan,
    point_streams,
    prime_miss_masks,
    run_cell,
    suite_trace_keys,
    workload_trace_keys,
)
from repro.plan.compile import compile_module, compile_report
from repro.plan.executor import (
    add_plan_observer,
    execute_cells,
    execute_plan,
    remove_plan_observer,
    run_experiment,
    run_report,
)

__all__ = [
    "CompiledExperiment",
    "DEMAND_MASK_MECHANISMS",
    "MaskFamily",
    "PlanCell",
    "PlanInputs",
    "SweepPlan",
    "TraceKey",
    "add_plan_observer",
    "compile_module",
    "compile_report",
    "execute_cells",
    "execute_plan",
    "mask_families",
    "mask_shape_plan",
    "point_streams",
    "prime_miss_masks",
    "remove_plan_observer",
    "run_cell",
    "run_experiment",
    "run_report",
    "suite_trace_keys",
    "workload_trace_keys",
]
