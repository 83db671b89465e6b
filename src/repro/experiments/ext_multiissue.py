"""Extension — the multi-issue projection behind the paper's conclusion.

    "Simulation results show that this design contributes at least 0.18
    cycles to the CPI...  instruction-fetch overhead will be an
    important component of the execution time of future multi-issue
    processors that rely on small primary caches to facilitate high
    clock rates."

This experiment turns that sentence into a table: take the measured
post-optimization CPIinstr of the high-performance configuration (both
for IBS and for SPEC), project issue widths 1/2/4/8, and report the
fraction of execution time each machine spends stalled on instruction
fetch and its achieved IPC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.core.multiissue import IssueProjection, project_issue_widths
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    fetch_point,
    suite_cpi_instr,
)
from repro.fetch.timing import MemoryTiming
from repro.plan import inputs as plan_inputs

WIDTHS = (1, 2, 4, 8)
L2 = CacheGeometry(64 * 1024, 64, 8)
SUITES = ("ibs-mach3", "spec92")

#: The fully optimized system: pipelined L1-L2 interface, 8-way L2.
OPTIMIZED = MemorySystemConfig(
    "optimized",
    l1=CacheGeometry(8192, 32, 1),
    memory=MemorySystemConfig.high_performance().memory,
    l2=L2,
    l1_interface=MemoryTiming(latency=6, bytes_per_cycle=32),
)


@dataclass(frozen=True)
class ExtMultiIssueResult:
    """Issue-width projections for the optimized system."""

    cpi_instr: dict[str, float] = field(default_factory=dict)
    projections: dict[str, list[IssueProjection]] = field(default_factory=dict)

    def render(self) -> str:
        blocks = []
        for suite, rows in self.projections.items():
            headers = ["Issue width", "base CPI", "total CPI", "IPC",
                       "fetch-stall share", "efficiency"]
            body = [
                [
                    str(p.issue_width),
                    f"{p.base_cpi:.3f}",
                    f"{p.total_cpi:.3f}",
                    f"{p.ipc:.2f}",
                    f"{p.fetch_stall_fraction:.1%}",
                    f"{p.efficiency:.1%}",
                ]
                for p in rows
            ]
            blocks.append(
                format_table(
                    headers,
                    body,
                    title=f"Extension ({suite}): multi-issue projection at "
                    f"CPIinstr = {self.cpi_instr[suite]:.3f} "
                    "(fully-optimized high-performance system)",
                )
            )
        return "\n\n".join(blocks)

    def stall_share(self, suite: str, width: int) -> float:
        """Fetch-stall share at one issue width."""
        for projection in self.projections[suite]:
            if projection.issue_width == width:
                return projection.fetch_stall_fraction
        raise KeyError(width)


def _compute(settings: ExperimentSettings) -> ExtMultiIssueResult:
    """One cell: project issue widths from the optimized system's
    measured floor."""
    cpi_instr: dict[str, float] = {}
    projections: dict[str, list[IssueProjection]] = {}
    for suite in SUITES:
        l1, l2 = suite_cpi_instr(
            suite, OPTIMIZED, "stream-buffer", settings, n_lines=6
        )
        floor = l1 + l2
        cpi_instr[suite] = floor
        projections[suite] = project_issue_widths(floor, WIDTHS)
    return ExtMultiIssueResult(cpi_instr=cpi_instr, projections=projections)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: one cell sharing both suites' traces
    plus the optimized system's stream and demand mask."""
    return plan_inputs.run_cell(
        "ext_multiissue", _compute, settings,
        suites=SUITES,
        points=[
            fetch_point(
                ("ext_multiissue",), OPTIMIZED, "stream-buffer", n_lines=6
            )
        ],
    )
