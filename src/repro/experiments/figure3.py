"""Figure 3 — Total CPIinstr versus L2 line size and cache size.

An on-chip, direct-mapped L2 is added to both baselines; the L1 then
refills through the 6-cycle, 16-byte/cycle on-chip interface (L1
CPIinstr drops to ~0.34) and the total adds the L2's own misses to
memory.  The paper's findings: even the smallest L2 helps the economy
configuration if the line size is tuned; the high-performance
configuration needs a 32-64 KB L2 to beat its baseline; and a 64 KB
on-chip L2 over an economy memory system matches the high-performance
baseline.
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
    suite_cpi_instr,
)
from repro.plan import inputs as plan_inputs
from repro.plan.ir import PlanCell

L2_SIZES = tuple(1024 * k for k in (16, 32, 64, 128, 256))
L2_LINE_SIZES = (16, 32, 64, 128, 256)
CONFIG_NAMES = ("economy", "high-performance")
SUITE = "ibs-mach3"

#: Paper reference points (read off the plot): baseline CPIinstr of
#: each configuration (dotted lines) and the fixed L1 contribution
#: behind an on-chip L2.
PAPER_BASELINES = {"economy": 1.77, "high-performance": 0.72}
PAPER_L1_WITH_L2 = 0.34


@dataclass(frozen=True)
class Figure3Result:
    """Reproduced Figure 3."""

    # (config, l2 size, l2 line size) -> total CPIinstr
    cells: dict[tuple[str, int, int], float] = field(default_factory=dict)
    l1_contribution: float = 0.0

    def render(self) -> str:
        blocks = []
        for config_name in CONFIG_NAMES:
            headers = [
                "L2 size",
                *(f"{ls}B line" for ls in L2_LINE_SIZES),
            ]
            body = []
            for size in L2_SIZES:
                row = [f"{size // 1024}KB"]
                for line_size in L2_LINE_SIZES:
                    value = self.cells.get((config_name, size, line_size))
                    row.append("-" if value is None else f"{value:.3f}")
                body.append(row)
            blocks.append(
                format_table(
                    headers,
                    body,
                    title=f"Figure 3 ({config_name}): total CPIinstr vs "
                    f"on-chip L2 line size (baseline "
                    f"{PAPER_BASELINES[config_name]:.2f}; L1 behind L2 "
                    f"contributes {self.l1_contribution:.2f}, paper "
                    f"{PAPER_L1_WITH_L2:.2f})",
                )
            )
        return "\n\n".join(blocks)

    def best(self, config_name: str) -> tuple[int, int, float]:
        """The (size, line, CPIinstr) minimum for one configuration."""
        candidates = {
            (size, line): value
            for (name, size, line), value in self.cells.items()
            if name == config_name
        }
        (size, line), value = min(candidates.items(), key=lambda kv: kv[1])
        return size, line, value


def _base_config(config_name: str) -> MemorySystemConfig:
    if config_name == "economy":
        return MemorySystemConfig.economy()
    return MemorySystemConfig.high_performance()


def _evaluate_point(
    config_name: str,
    size: int,
    line_size: int,
    suite: str,
    settings: ExperimentSettings,
) -> tuple[float, float]:
    """One cell: suite-mean (L1, L2) CPIinstr at one L2 design point."""
    config = _base_config(config_name).with_l2(
        CacheGeometry(size, line_size, 1)
    )
    return suite_cpi_instr(suite, config, "demand", settings)


def _enumerate_points(
    l2_sizes: tuple[int, ...], l2_line_sizes: tuple[int, ...]
) -> list[tuple[str, int, int]]:
    return [
        (config_name, size, line_size)
        for config_name in CONFIG_NAMES
        for size in l2_sizes
        for line_size in l2_line_sizes
        if line_size <= size
    ]


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    l2_sizes: tuple[int, ...] = L2_SIZES,
    l2_line_sizes: tuple[int, ...] = L2_LINE_SIZES,
) -> list[PlanCell]:
    """Figure 3's design-space sweep: one cell per feasible
    (configuration, L2 size, L2 line) point, with its L1+L2 masks."""
    traces = plan_inputs.suite_trace_keys(SUITE, settings)
    cell_list = []
    for point in _enumerate_points(l2_sizes, l2_line_sizes):
        config_name, size, line_size = point
        config = _base_config(config_name).with_l2(
            CacheGeometry(size, line_size, 1)
        )
        cell_list.append(
            PlanCell(
                key=point,
                fn=_evaluate_point,
                args=(*point, SUITE, settings),
                traces=traces,
                masks=plan_inputs.mask_families(
                    [fetch_point(point, config, "demand")], settings.engine
                ),
            )
        )
    return cell_list


def merge(
    settings: ExperimentSettings,
    results: list[tuple[float, float]],
    l2_sizes: tuple[int, ...] = L2_SIZES,
    l2_line_sizes: tuple[int, ...] = L2_LINE_SIZES,
) -> Figure3Result:
    """Reassemble the sweep table from the per-point cells."""
    cells_out: dict[tuple[str, int, int], float] = {}
    l1_contribution = 0.0
    points = _enumerate_points(l2_sizes, l2_line_sizes)
    for point, (l1, l2) in zip(points, results):
        cells_out[point] = l1 + l2
        l1_contribution = l1  # identical across L2 points
    return Figure3Result(cells=cells_out, l1_contribution=l1_contribution)
