"""Extension — the title's trend, made quantitative.

The paper's Section 4 argues from snapshots: newer gcc misses ~15% more
than SPEC's older gcc; groff (C++) ~60% more than nroff (C); Mach ~35%
more than Ultrix.  This experiment turns the *trend* itself into a
curve: take one calibrated workload and bloat it progressively — larger
code footprint and shorter procedure visits (more modules, more
abstraction layers, more indirection per useful instruction) — and
track what happens to the reference cache and to the fully-optimized
Section 5 memory system.

The design question it answers: how much code growth does the paper's
best configuration absorb before instruction fetch again dominates?
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.core.metrics import measure_mpi
from repro.core.study import evaluate_trace
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.trace.rle import to_line_runs
from repro.workloads.generator import synthesize_trace
from repro.workloads.registry import get_workload
from repro.plan import inputs as plan_inputs

REFERENCE = CacheGeometry(8192, 32, 1)
WORKLOAD = "gcc"

#: Bloat stages: (label, footprint multiplier, visit-length multiplier).
#: Growing code with more module boundaries both adds lines and
#: shortens the useful work per procedure activation.
STAGES = (
    ("1.0x (as calibrated)", 1.0, 1.0),
    ("1.25x", 1.25, 0.9),
    ("1.5x", 1.5, 0.8),
    ("2.0x", 2.0, 0.7),
    ("3.0x", 3.0, 0.6),
)

L2 = CacheGeometry(64 * 1024, 64, 8)


@dataclass(frozen=True)
class BloatStage:
    """Measurements at one bloat stage."""

    mpi_8kb: float
    cpi_optimized: float


@dataclass(frozen=True)
class ExtBloatResult:
    """MPI and optimized-system CPI per bloat stage."""

    workload: str = ""
    stages: dict[str, BloatStage] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Bloat", "MPI/100 (8 KB DM)", "CPIinstr (optimized)"]
        body = [
            [label, f"{stage.mpi_8kb:.2f}", f"{stage.cpi_optimized:.3f}"]
            for label, stage in self.stages.items()
        ]
        return format_table(
            headers,
            body,
            title=f"Extension: coping with *more* code bloat ({self.workload}; "
            "optimized = 8 KB L1 + 64 KB 8-way L2 + prefetch)",
        )

    def growth(self) -> float:
        """Optimized-system CPI ratio from first to last stage."""
        values = [s.cpi_optimized for s in self.stages.values()]
        if not values or values[0] == 0:
            return 1.0
        return values[-1] / values[0]

    def mpi_series(self) -> list[float]:
        """MPI values in stage order."""
        return [s.mpi_8kb for s in self.stages.values()]


def _compute(
    settings: ExperimentSettings,
    stages: tuple[tuple[str, float, float], ...],
) -> ExtBloatResult:
    """One cell: sweep the bloat stages of one workload."""
    base = get_workload(WORKLOAD, "mach3")
    optimized = MemorySystemConfig.high_performance().with_l2(L2)
    results: dict[str, BloatStage] = {}
    for label, footprint_factor, visit_factor in stages:
        workload = base.scaled_footprint(footprint_factor).scaled_visits(
            visit_factor
        )
        trace = synthesize_trace(
            workload, settings.n_instructions, seed=settings.seed
        )
        runs = to_line_runs(trace.ifetch_addresses(), 32)
        mpi = measure_mpi(
            runs, REFERENCE, settings.warmup_fraction
        ).mpi_per_100
        study = evaluate_trace(
            trace, optimized, "prefetch", n_prefetch=1,
            warmup_fraction=settings.warmup_fraction,
        )
        results[label] = BloatStage(
            mpi_8kb=mpi, cpi_optimized=study.cpi_instr
        )
    return ExtBloatResult(workload=WORKLOAD, stages=results)


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    stages: tuple[tuple[str, float, float], ...] = STAGES,
):
    """The sweep-plan compilation: scaled traces are synthesized per stage."""
    return plan_inputs.run_cell(
        "ext_bloat", _compute, settings, args=(stages,)
    )
