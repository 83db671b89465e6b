"""Figure 4 — CPIinstr versus L2 associativity.

With a 64 KB on-chip L2, associativity is swept from direct-mapped to
8-way.  The paper: "both configurations exhibit the greatest reduction
in CPIinstr (approximately 25%) between the direct-mapped and 2-way
set-associative caches; further increases... only reduce CPIinstr
another 20%", and an 8-way economy system nearly matches a
direct-mapped high-performance one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.fmt import format_series
from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    fetch_point,
    suite_cpi_instr,
)
from repro.fetch.timing import L1_L2_INTERFACE, MemoryTiming
from repro.plan import inputs as plan_inputs
from repro.plan.ir import PlanCell

ASSOCIATIVITIES = (1, 2, 4, 8)
L2_SIZE = 64 * 1024
L2_LINE = 64
CONFIG_NAMES = ("economy", "high-performance")
SUITE = "ibs-mach3"


@dataclass(frozen=True)
class Figure4Result:
    """Reproduced Figure 4."""

    # (config, associativity) -> total CPIinstr
    cells: dict[tuple[str, int], float] = field(default_factory=dict)

    def render(self) -> str:
        series = {
            name: [self.cells[(name, a)] for a in ASSOCIATIVITIES]
            for name in CONFIG_NAMES
        }
        return format_series(
            "L2 ways",
            ASSOCIATIVITIES,
            series,
            title="Figure 4: total CPIinstr vs L2 associativity "
            f"({L2_SIZE // 1024}KB L2, {L2_LINE}B lines; paper: ~25% "
            "gain 1->2 way, ~20% more to 8-way)",
        )

    def reduction(self, config_name: str, a_from: int, a_to: int) -> float:
        """Relative CPIinstr reduction between two associativities."""
        before = self.cells[(config_name, a_from)]
        after = self.cells[(config_name, a_to)]
        if before == 0:
            return 0.0
        return (before - after) / before


def _point_config(
    config_name: str, ways: int, associative_lookup_penalty: bool
) -> MemorySystemConfig:
    """The memory system of one (configuration, associativity) point."""
    if config_name == "economy":
        base = MemorySystemConfig.economy()
    else:
        base = MemorySystemConfig.high_performance()
    interface = L1_L2_INTERFACE
    if associative_lookup_penalty and ways > 1:
        interface = MemoryTiming(
            latency=L1_L2_INTERFACE.latency + 1,
            bytes_per_cycle=L1_L2_INTERFACE.bytes_per_cycle,
        )
    return base.with_l2(CacheGeometry(L2_SIZE, L2_LINE, ways), interface)


def _evaluate_point(
    config_name: str,
    ways: int,
    suite: str,
    associative_lookup_penalty: bool,
    settings: ExperimentSettings,
) -> float:
    """One cell: suite-mean total CPIinstr at one associativity."""
    config = _point_config(config_name, ways, associative_lookup_penalty)
    l1, l2 = suite_cpi_instr(suite, config, "demand", settings)
    return l1 + l2


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    associative_lookup_penalty: bool = False,
) -> list[PlanCell]:
    """Figure 4's associativity sweep: one cell per (configuration,
    associativity) point, with its L1+L2 masks.

    ``associative_lookup_penalty`` models the paper's footnote: "The
    additional delay due to the associative lookup will increase the
    access time to the L2 cache, possibly increasing the L1-L2 latency
    by 1 full cycle.  This would increase the L1 contribution to
    CPIinstr from 0.34 to 0.38."  With it enabled, associative L2
    points pay a 7-cycle instead of 6-cycle interface latency.
    """
    traces = plan_inputs.suite_trace_keys(SUITE, settings)
    return [
        PlanCell(
            key=("figure4", config_name, ways),
            fn=_evaluate_point,
            args=(
                config_name, ways, SUITE, associative_lookup_penalty,
                settings,
            ),
            traces=traces,
            masks=plan_inputs.mask_families(
                [
                    fetch_point(
                        (config_name, ways),
                        _point_config(
                            config_name, ways, associative_lookup_penalty
                        ),
                        "demand",
                    )
                ],
                settings.engine,
            ),
        )
        for config_name in CONFIG_NAMES
        for ways in ASSOCIATIVITIES
    ]


def merge(
    settings: ExperimentSettings, results: list[float], **_overrides
) -> Figure4Result:
    """Zip per-point totals back into the curve layout."""
    keys = [
        (config_name, ways)
        for config_name in CONFIG_NAMES
        for ways in ASSOCIATIVITIES
    ]
    return Figure4Result(cells=dict(zip(keys, results)))
