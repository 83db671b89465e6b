"""Figure 5 — Variability in CPIinstr vs I-cache size and associativity.

The trap-driven (Tapeworm) experiment: for each workload, cache size
and associativity, run five trials with independently-random
virtual-to-physical page mappings and report one standard deviation of
CPIinstr.  The paper's observations, which this experiment reproduces:

* variability is workload-dependent — IBS workloads like verilog and
  gs swing much more than SPEC's eqntott/espresso;
* variability peaks at intermediate cache sizes (where a workload's hot
  pages only partly fit and placement luck decides conflicts);
* small amounts of associativity suppress it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
)
from repro.plan import inputs as plan_inputs
from repro.plan.ir import PlanCell
from repro.tapeworm.trapdriven import TapewormSimulator, VariabilityResult
from repro.trace.rle import to_line_runs
from repro.workloads.registry import get_trace

#: The paper plots these four workloads (two IBS, two SPEC).
WORKLOADS = (
    ("verilog", "mach3"),
    ("gs", "mach3"),
    ("eqntott", "spec92"),
    ("espresso", "spec92"),
)

CACHE_SIZES = tuple(1024 * k for k in (4, 8, 16, 32, 64, 128, 256, 512, 1024))
ASSOCIATIVITIES = (1, 2, 4)
LINE_SIZE = 32
N_TRIALS = 5


@dataclass(frozen=True)
class Figure5Result:
    """Reproduced Figure 5."""

    # (workload, size, ways) -> variability over the trials
    cells: dict[tuple[str, int, int], VariabilityResult] = field(
        default_factory=dict
    )

    def render(self) -> str:
        headers = ["Workload", "Size", *(f"{a}-way sd" for a in ASSOCIATIVITIES)]
        body = []
        seen = sorted({(w, s) for (w, s, _a) in self.cells})
        for workload, size in seen:
            row = [workload, f"{size // 1024}KB"]
            for ways in ASSOCIATIVITIES:
                result = self.cells.get((workload, size, ways))
                row.append("-" if result is None else f"{result.std_cpi:.4f}")
            body.append(row)
        return format_table(
            headers,
            body,
            title="Figure 5: std dev of CPIinstr over "
            f"{N_TRIALS} randomly-mapped trials (physically-indexed "
            "I-cache)",
        )

    def peak_std(self, workload: str, ways: int = 1) -> float:
        """Maximum variability across sizes for one workload."""
        return max(
            result.std_cpi
            for (name, _size, a), result in self.cells.items()
            if name == workload and a == ways
        )


def _sweep_workload(
    name: str,
    os_name: str,
    cache_sizes: tuple[int, ...],
    associativities: tuple[int, ...],
    n_trials: int,
    settings: ExperimentSettings,
) -> dict[tuple[str, int, int], VariabilityResult]:
    """One cell: the full geometry grid for one workload.

    The whole grid goes through :meth:`TapewormSimulator.run_grid`, so
    each trial's random page mapping is applied once and the translated
    streams' miss masks are shared across every (size, ways) point.
    """
    simulator = TapewormSimulator(warmup_fraction=settings.warmup_fraction)
    trace = get_trace(name, os_name, settings.n_instructions, settings.seed)
    runs = to_line_runs(trace.ifetch_addresses(), LINE_SIZE)
    grid = [
        (size, ways)
        for size in cache_sizes
        for ways in associativities
    ]
    results = simulator.run_grid(
        runs,
        [CacheGeometry(size, LINE_SIZE, ways) for size, ways in grid],
        n_trials=n_trials,
        base_seed=settings.seed,
    )
    return {
        (name, size, ways): result
        for (size, ways), result in zip(grid, results)
    }


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    cache_sizes: tuple[int, ...] = CACHE_SIZES,
    associativities: tuple[int, ...] = ASSOCIATIVITIES,
    n_trials: int = N_TRIALS,
) -> list[PlanCell]:
    """Figure 5's trap-driven variability study: one cell per workload.

    Tapeworm trials apply a fresh random page mapping per trial, so the
    translated streams (and their masks) are private to each cell; the
    only shareable input is the synthesized trace itself.
    """
    return [
        PlanCell(
            key=("figure5", name, os_name),
            fn=_sweep_workload,
            args=(name, os_name, cache_sizes, associativities, n_trials,
                  settings),
            traces=plan_inputs.workload_trace_keys(
                [(name, os_name)], settings
            ),
        )
        for name, os_name in WORKLOADS
    ]


def merge(
    settings: ExperimentSettings,
    results: list[dict[tuple[str, int, int], VariabilityResult]],
    **_overrides,
) -> Figure5Result:
    """Reassemble the study from the per-workload cells."""
    merged: dict[tuple[str, int, int], VariabilityResult] = {}
    for cell_result in results:
        merged.update(cell_result)
    return Figure5Result(cells=merged)
