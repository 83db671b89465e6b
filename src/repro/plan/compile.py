"""Compiling experiment modules into the sweep-plan IR.

Every experiment module is specified once, as a plan:

* ``plan_cells(settings, **overrides)`` emits the annotated
  :class:`~repro.plan.ir.PlanCell`\\ s that compute the experiment;
* ``merge(settings, results, **overrides)`` reassembles the per-cell
  results, which arrive in ``plan_cells`` order, into the experiment's
  result object.  Single-cell modules define no ``merge``: their one
  cell's result passes through unchanged.

Keyword overrides (a smaller sweep for a test, another suite for a
benchmark) reach both functions unchanged, so every way an experiment
is run executes the same plan.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping

from repro.plan.ir import CompiledExperiment, PlanCell, SweepPlan

__all__ = ["compile_module", "compile_report"]


def _module_label(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def compile_module(
    module, settings, name: str | None = None, **overrides
) -> CompiledExperiment:
    """Lower one experiment module to a :class:`CompiledExperiment`."""
    if name is None:
        name = _module_label(module)
    cells = module.plan_cells(settings, **overrides)
    merge = getattr(module, "merge", None)
    if merge is not None and overrides:
        merge = functools.partial(merge, **overrides)
    # Namespace cell keys by experiment so a report plan's timing cells
    # stay unambiguous when two experiments use similar keys.
    cells = tuple(
        PlanCell(
            key=(name, *cell.key) if cell.key[:1] != (name,) else cell.key,
            fn=cell.fn,
            args=cell.args,
            traces=cell.traces,
            streams=cell.streams,
            masks=cell.masks,
        )
        for cell in cells
    )
    return CompiledExperiment(
        name=name, cells=cells, merge=merge, settings=settings
    )


def compile_report(modules: Mapping[str, object], settings) -> SweepPlan:
    """Compile many experiments into one grid-wide plan."""
    return SweepPlan(
        experiments=tuple(
            compile_module(module, settings, name=name)
            for name, module in modules.items()
        )
    )
