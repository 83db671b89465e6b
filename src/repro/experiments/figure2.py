"""Figure 2 — The components of the SPEC92 and IBS workloads.

The paper's Figure 2 is a structural diagram: a SPEC92 benchmark is one
task above a monolithic kernel, while an IBS task under Mach 3.0 spans
an emulation library, the microkernel, and user-level BSD and X
servers.  We reproduce it as data: the software-layer inventory of each
OS model, and the *measured* evidence of that structure — how many
address-space components each suite's traces actually execute in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings, suite_traces
from repro.trace.record import COMPONENT_NAMES
from repro.trace.stats import component_mix
from repro.workloads.os_model import MACH3, ULTRIX, os_component_inventory
from repro.plan import inputs as plan_inputs


@dataclass(frozen=True)
class Figure2Result:
    """Reproduced Figure 2 (structure as data)."""

    inventories: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    active_components: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["Figure 2: Workload structure (SPEC92 vs IBS)"]
        for os_name, inventory in self.inventories.items():
            lines.append(f"\n[{os_name}]")
            for layer, parts in inventory.items():
                lines.append(f"  {layer}: {', '.join(parts)}")
        rows = [
            [suite, f"{count:.2f}"]
            for suite, count in self.active_components.items()
        ]
        lines.append("")
        lines.append(
            format_table(
                ["Suite", "Mean active address-space components"],
                rows,
            )
        )
        return "\n".join(lines)


def _compute(settings: ExperimentSettings) -> Figure2Result:
    """One cell: reproduce Figure 2's structural contrast, with trace evidence."""
    inventories = {
        "Ultrix (monolithic)": os_component_inventory(ULTRIX),
        "Mach 3.0 (microkernel)": os_component_inventory(MACH3),
    }
    active: dict[str, float] = {}
    for suite in ("spec92", "ibs-ultrix", "ibs-mach3"):
        counts = []
        for trace in suite_traces(suite, settings):
            mix = component_mix(trace)
            counts.append(
                sum(1 for fraction in mix.values() if fraction >= 0.01)
            )
        active[suite] = float(np.mean(counts))
    return Figure2Result(inventories=inventories, active_components=active)


#: Exposed so tests can assert names render sensibly.
COMPONENT_LABELS = dict(COMPONENT_NAMES)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: one cell sharing all three suites' traces."""
    return plan_inputs.run_cell(
        "figure2", _compute, settings,
        suites=("spec92", "ibs-ultrix", "ibs-mach3"),
    )
