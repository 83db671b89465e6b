"""Figure 6 — Bandwidth and L1 CPIinstr versus line size.

The 8 KB direct-mapped L1 behind a 6-cycle-latency L2, swept over line
sizes (4-256 bytes) at L1-L2 bandwidths of 4-64 bytes/cycle, under the
wait-for-full-refill execution model.  The paper's findings:

* more bandwidth always helps (shorter fill latency);
* the *optimal line size grows with bandwidth* (the black symbols on
  the paper's plot);
* returns diminish beyond ~16 bytes/cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    fetch_point,
    sweep_fetch_cpi,
)
from repro.fetch.timing import MemoryTiming
from repro.plan import inputs as plan_inputs
from repro.plan.ir import PlanCell

BANDWIDTHS = (4, 8, 16, 32, 64)
LINE_SIZES = (4, 8, 16, 32, 64, 128, 256)
LATENCY = 6
SUITE = "ibs-mach3"
L1_SIZE = 8192


@dataclass(frozen=True)
class Figure6Result:
    """Reproduced Figure 6."""

    # (bandwidth, line size) -> L1 CPIinstr
    cells: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def bandwidths(self) -> tuple[int, ...]:
        """The bandwidths actually swept."""
        return tuple(sorted({bw for bw, _line in self.cells}))

    @property
    def line_sizes(self) -> tuple[int, ...]:
        """The line sizes actually swept."""
        return tuple(sorted({line for _bw, line in self.cells}))

    def render(self) -> str:
        headers = ["Line", *(f"{bw} B/cyc" for bw in self.bandwidths)]
        body = []
        optima = {bw: self.optimal_line_size(bw) for bw in self.bandwidths}
        for line_size in self.line_sizes:
            row = [f"{line_size}B"]
            for bw in self.bandwidths:
                value = self.cells.get((bw, line_size))
                if value is None:
                    row.append("-")
                else:
                    marker = " *" if optima[bw] == line_size else ""
                    row.append(f"{value:.3f}{marker}")
            body.append(row)
        return format_table(
            headers,
            body,
            title="Figure 6: L1 CPIinstr vs line size and L1-L2 bandwidth "
            "(8 KB DM, 6-cycle latency; * = optimal line size)",
        )

    def optimal_line_size(self, bandwidth: int) -> int:
        """The line size minimizing CPIinstr at one bandwidth."""
        candidates = {
            line: value
            for (bw, line), value in self.cells.items()
            if bw == bandwidth
        }
        return min(candidates, key=candidates.get)


def _line_size_points(line_size: int, bandwidths: tuple[int, ...]):
    """All bandwidth points of one line-size column.

    Grouping by line size means every point of a group drives the same
    (workload, line size) RLE stream, so the planner computes each L1
    miss mask once and shares it across the whole bandwidth sweep.
    """
    return [
        fetch_point(
            (bw, line_size),
            MemorySystemConfig(
                name=f"bw{bw}-line{line_size}",
                l1=CacheGeometry(L1_SIZE, line_size, 1),
                memory=MemoryTiming(latency=LATENCY, bytes_per_cycle=bw),
            ),
            "demand",
        )
        for bw in bandwidths
    ]


def _sweep_line_size(
    line_size: int,
    bandwidths: tuple[int, ...],
    suite: str,
    settings: ExperimentSettings,
) -> dict[tuple[int, int], float]:
    """One cell: the full bandwidth sweep at one L1 line size."""
    swept = sweep_fetch_cpi(
        suite, _line_size_points(line_size, bandwidths), settings
    )
    return {key: l1 for key, (l1, _l2) in swept.items()}


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    bandwidths: tuple[int, ...] = BANDWIDTHS,
    line_sizes: tuple[int, ...] = LINE_SIZES,
    suite: str = SUITE,
) -> list[PlanCell]:
    """Figure 6's bandwidth x line-size sweep: one cell per line size,
    each sharing one miss mask per workload across its bandwidths."""
    traces = plan_inputs.suite_trace_keys(suite, settings)
    return [
        PlanCell(
            key=("figure6", line_size),
            fn=_sweep_line_size,
            args=(line_size, bandwidths, suite, settings),
            traces=traces,
            masks=plan_inputs.mask_families(
                _line_size_points(line_size, bandwidths), settings.engine
            ),
        )
        for line_size in line_sizes
    ]


def merge(
    settings: ExperimentSettings,
    results: list[dict[tuple[int, int], float]],
    **_overrides,
) -> Figure6Result:
    """Reassemble the sweep table from the per-line-size cells."""
    merged: dict[tuple[int, int], float] = {}
    for cell_result in results:
        merged.update(cell_result)
    return Figure6Result(cells=merged)
