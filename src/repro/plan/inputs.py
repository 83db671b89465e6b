"""Shared-input derivation and priming for compiled experiments.

:func:`mask_shape_plan` and :func:`prime_miss_masks` are the plan IR's
substrate: every compiled experiment derives its mask-family
annotations through them, the executor primes with them, and the
figure-6/7 sweep planner
(:func:`~repro.experiments.common.sweep_fetch_cpi`) batches its
geometry axis with them.

This module deliberately avoids importing the experiments layer (which
imports it): sweep points are duck-typed — anything with ``config``
(a :class:`~repro.core.config.MemorySystemConfig`) and ``mechanism``
attributes qualifies, which both
:class:`~repro.experiments.common.FetchPoint` and the service
scheduler's ``(config, mechanism)`` pairs satisfy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro._util.bitops import ilog2
from repro.caches.vectorized import line_order_cache
from repro.fetch import vectorized
from repro.plan.ir import MaskFamily, PlanCell, TraceKey
from repro.runner import timing
from repro.workloads.registry import suite_workloads

__all__ = [
    "DEMAND_MASK_MECHANISMS",
    "mask_families",
    "mask_shape_plan",
    "point_streams",
    "prime_miss_masks",
    "run_cell",
    "suite_trace_keys",
    "workload_trace_keys",
]

#: Mechanisms whose vectorized kernels consult the plain demand miss
#: mask, so their L1 shapes can join the batched multi-geometry pass.
DEMAND_MASK_MECHANISMS = frozenset({"demand", "stream-buffer"})


def mask_shape_plan(
    points: Sequence, engine: str
) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """The stack-distance mask shapes a sweep will consult, per stream.

    Keyed by ``(encode_line_size, mask_line_size)``: the stream is the
    workload's RLE lines at the first size, coarsened to the second —
    exactly what :func:`~repro.core.study.evaluate_trace`'s L1 and L2
    legs look up.  L1 shapes join only for mechanisms whose kernels
    read the demand mask, and only when the vectorized engine can run
    (``engine="reference"`` never consults masks).  L2 shapes always
    join: :func:`~repro.core.metrics.measure_mpi` is mask-based under
    every engine.
    """
    plan: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for point in points:
        l1 = point.config.l1
        if engine != "reference" and (
            point.mechanism in DEMAND_MASK_MECHANISMS
        ):
            plan.setdefault((l1.line_size, l1.line_size), set()).add(
                vectorized._mask_shape(l1)
            )
        l2 = point.config.l2
        if l2 is not None:
            base = min(l2.line_size, l1.line_size)
            plan.setdefault((base, l2.line_size), set()).add(
                (l2.n_sets, l2.associativity)
            )
    return plan


def prime_miss_masks(
    trace, plan: dict[tuple[int, int], set[tuple[int, int]]]
) -> None:
    """Batch-compute one trace's miss masks ahead of point evaluation.

    Feeds every geometry of the sweep into
    :meth:`~repro.caches.vectorized.LineOrderCache.miss_masks` so
    shapes sharing a set count are priced from one shared
    stack-distance pass; the per-point evaluations then hit the memo.
    Purely a warm-up: evaluation order and arithmetic are unchanged, so
    results stay bit-identical with or without it.
    """
    for (encode_size, mask_size), shapes in plan.items():
        runs = trace.ifetch_line_runs(encode_size)
        cache = line_order_cache(runs.lines)
        lines = cache.coarsened(ilog2(mask_size) - ilog2(encode_size))
        with timing.phase(timing.PHASE_SIMULATE):
            line_order_cache(lines).miss_masks(sorted(shapes))


def mask_families(points: Sequence, engine: str) -> tuple[MaskFamily, ...]:
    """Mask-family annotations for a sweep's points (one per stream)."""
    plan = mask_shape_plan(points, engine)
    return tuple(
        MaskFamily(
            encode_line_size=encode_size,
            mask_line_size=mask_size,
            shapes=tuple(sorted(shapes)),
        )
        for (encode_size, mask_size), shapes in sorted(plan.items())
    )


def point_streams(points: Sequence) -> tuple[int, ...]:
    """Every encode line size a sweep's points will read.

    The L1 leg reads the stream at the L1 line size; the L2 leg reads
    the stream at ``min(l2.line_size, l1.line_size)`` and coarsens.
    """
    sizes: set[int] = set()
    for point in points:
        l1 = point.config.l1
        sizes.add(l1.line_size)
        if point.config.l2 is not None:
            sizes.add(min(point.config.l2.line_size, l1.line_size))
    return tuple(sorted(sizes))


def suite_trace_keys(suite: str, settings) -> tuple[TraceKey, ...]:
    """Trace annotations for every workload of a suite."""
    return workload_trace_keys(suite_workloads(suite), settings)


def workload_trace_keys(
    pairs: Iterable[tuple[str, str]], settings
) -> tuple[TraceKey, ...]:
    """Trace annotations for explicit ``(name, os)`` pairs."""
    return tuple(
        TraceKey(
            workload=name,
            os_name=os_name,
            n_instructions=settings.n_instructions,
            seed=settings.seed,
        )
        for name, os_name in pairs
    )


def run_cell(
    name: str,
    fn,
    settings,
    *,
    args: tuple = (),
    suites: Iterable[str] = (),
    workloads: Iterable[tuple[str, str]] = (),
    points: Sequence = (),
    streams: Iterable[int] = (),
    masks: Iterable[MaskFamily] = (),
) -> list[PlanCell]:
    """A single-cell plan: ``fn(settings, *args)`` computes the experiment.

    For experiments whose loop is not decomposed into cells: the loop
    runs inside one cell, but its shared inputs are declared —
    ``suites``/``workloads`` name the traces, ``points`` derive mask
    families and stream sizes, and explicit ``streams``/``masks`` cover
    reads no point describes.  ``args`` carries the experiment's
    keyword overrides, in ``fn``'s positional order.
    """
    pairs = [
        pair for suite in suites for pair in suite_workloads(suite)
    ] + list(workloads)
    families = tuple(masks)
    stream_sizes = tuple(streams)
    if points:
        families = families + mask_families(points, settings.engine)
        stream_sizes = stream_sizes + point_streams(points)
    return [
        PlanCell(
            key=(name,),
            fn=fn,
            args=(settings, *args),
            traces=workload_trace_keys(pairs, settings),
            streams=tuple(sorted(set(stream_sizes))),
            masks=families,
        )
    ]
