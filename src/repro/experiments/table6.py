"""Table 6 — Sequential prefetch-on-miss.

L1 CPIinstr of the 8 KB direct-mapped cache across line sizes (16, 32,
64 bytes) and prefetch depths (0-3 lines), with a 16-byte/cycle,
6-cycle-latency L1-L2 interface.  The paper's headline: prefetching
over multiple small lines beats simply lengthening the line — 16 B + 3
prefetched lines (0.260) outperforms a 64 B line (0.297) even though
both return 64 bytes per miss.
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

#: Paper values: (line size, prefetch depth) -> L1 CPIinstr ("—" cells
#: omitted; the paper marks them "not reasonable or worse").
PAPER = {
    (16, 0): 0.439, (16, 1): 0.305, (16, 2): 0.270, (16, 3): 0.260,
    (32, 0): 0.335, (32, 1): 0.271,
    (64, 0): 0.297,
}

LINE_SIZES = (16, 32, 64)
PREFETCH_DEPTHS = (0, 1, 2, 3)

#: The L1-L2 interface fixed for Tables 6-8.
INTERFACE = MemoryTiming(latency=6, bytes_per_cycle=16)
SUITE = "ibs-mach3"


@dataclass(frozen=True)
class Table6Result:
    """Reproduced Table 6."""

    cells: dict[tuple[int, int], float] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Prefetch N", *(f"{ls} B line" for ls in LINE_SIZES)]
        body = []
        for depth in PREFETCH_DEPTHS:
            row: list[str] = [str(depth)]
            for line_size in LINE_SIZES:
                value = self.cells[(line_size, depth)]
                paper = PAPER.get((line_size, depth))
                cell = f"{value:.3f}"
                if paper is not None:
                    cell += f" ({paper:.3f})"
                row.append(cell)
            body.append(row)
        return format_table(
            headers,
            body,
            title="Table 6: L1 CPIinstr with sequential prefetch-on-miss "
            "(8 KB DM; 16 B/cyc; paper values in parentheses)",
        )


def _line_size_points(line_size: int, depths: tuple[int, ...]):
    """All prefetch-depth points of one line-size column."""
    config = MemorySystemConfig(
        name=f"l1-{line_size}B",
        l1=CacheGeometry(8192, line_size, 1),
        memory=INTERFACE,
    )
    return [
        fetch_point((line_size, depth), config, "prefetch", n_prefetch=depth)
        for depth in depths
    ]


def _sweep_line_size(
    line_size: int,
    depths: tuple[int, ...],
    suite: str,
    settings: ExperimentSettings,
) -> dict[tuple[int, int], float]:
    """One cell: every prefetch depth at one line size.

    All depths share the (workload, line size) stream, so the planner
    reuses one set of memoized install-aware miss masks per workload.
    """
    swept = sweep_fetch_cpi(
        suite, _line_size_points(line_size, depths), settings
    )
    return {key: l1 for key, (l1, _l2) in swept.items()}


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS) -> list[PlanCell]:
    """Table 6 over the IBS suite: one cell per line size.

    Prefetch kernels consult install-aware masks (not the plain demand
    mask), so no mask family is declared — the shared inputs are the
    traces and the per-line-size RLE streams the depths all drive.
    """
    traces = plan_inputs.suite_trace_keys(SUITE, settings)
    return [
        PlanCell(
            key=("table6", line_size),
            fn=_sweep_line_size,
            args=(line_size, PREFETCH_DEPTHS, SUITE, settings),
            traces=traces,
            streams=plan_inputs.point_streams(
                _line_size_points(line_size, PREFETCH_DEPTHS)
            ),
        )
        for line_size in LINE_SIZES
    ]


def merge(
    settings: ExperimentSettings, results: list[dict[tuple[int, int], float]]
) -> Table6Result:
    """Reassemble the table from the per-line-size cells."""
    merged: dict[tuple[int, int], float] = {}
    for cell_result in results:
        merged.update(cell_result)
    return Table6Result(cells=merged)
