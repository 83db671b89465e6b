"""Extension — sensitivity of the workload model's knobs.

The reproduction rests on a synthetic workload model; this experiment
documents how its calibrated quantity (MPI in the reference 8 KB cache)
responds to each model knob, holding the others at the groff workload's
calibrated values.  It serves two purposes:

* **robustness evidence** — the headline results do not hinge on a
  knife-edge parameter choice (each knob moves MPI smoothly and in the
  direction its mechanism implies);
* **a map for re-calibration** — if a future synthesizer change shifts
  miss behaviour, this table shows which knob compensates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.core.metrics import measure_mpi
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.trace.rle import to_line_runs
from repro.workloads.generator import synthesize_trace
from repro.workloads.registry import get_workload
from repro.plan import inputs as plan_inputs

REFERENCE = CacheGeometry(8192, 32, 1)
WORKLOAD = "groff"

#: Knob -> (low multiplier, high multiplier, expected direction of MPI
#: as the knob increases: +1 up, -1 down).
KNOBS = {
    "code_kb": (0.5, 2.0, +1),
    "theta": (0.85, 1.15, -1),
    "visit_instructions": (0.5, 2.0, -1),
    "mean_run": (0.5, 2.0, 0),
    "loop_back_prob": (0.5, 1.6, 0),
    "branch_jump_prob": (0.5, 1.5, 0),
}


@dataclass(frozen=True)
class ExtSensitivityResult:
    """MPI at low/base/high settings of each knob."""

    baseline: float = 0.0
    rows: dict[str, tuple[float, float]] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Knob", "MPI @ low", "MPI @ base", "MPI @ high",
                   "direction"]
        body = []
        for knob, (low, high) in self.rows.items():
            direction = {+1: "rises", -1: "falls", 0: "(weak)"}[
                KNOBS[knob][2]
            ]
            body.append(
                [knob, f"{low:.2f}", f"{self.baseline:.2f}",
                 f"{high:.2f}", direction]
            )
        return format_table(
            headers,
            body,
            title="Extension: model-knob sensitivity of MPI "
            "(groff, 8 KB DM reference cache)",
        )

    def slope_sign(self, knob: str) -> int:
        """Observed direction: sign of MPI(high) - MPI(low)."""
        low, high = self.rows[knob]
        if abs(high - low) < 0.05:
            return 0
        return 1 if high > low else -1


#: Seeds averaged per knob setting.  A single run's MPI moves with the
#: code-layout draw (the paper's Figure 5 effect) by more than the
#: weaker knobs move it; averaging isolates the knob's own slope.
_N_SEEDS = 4


def _mpi(workload, settings: ExperimentSettings) -> float:
    values = []
    for offset in range(_N_SEEDS):
        trace = synthesize_trace(
            workload, settings.n_instructions, settings.seed + offset
        )
        runs = to_line_runs(trace.ifetch_addresses(), 32)
        values.append(
            measure_mpi(runs, REFERENCE, settings.warmup_fraction).mpi_per_100
        )
    return float(sum(values) / len(values))


def _compute(settings: ExperimentSettings) -> ExtSensitivityResult:
    """One cell: sweep each knob of one workload's components, low and
    high."""
    base = get_workload(WORKLOAD, "mach3")
    baseline = _mpi(base, settings)
    rows: dict[str, tuple[float, float]] = {}
    for knob, (low_mult, high_mult, _direction) in KNOBS.items():
        values = []
        for multiplier in (low_mult, high_mult):
            components = {
                component: replace(
                    params,
                    **{
                        knob: min(
                            getattr(params, knob) * multiplier,
                            0.95 if knob.endswith("prob") else float("inf"),
                        )
                    },
                )
                for component, params in base.components.items()
            }
            modified = replace(base, components=components)
            values.append(_mpi(modified, settings))
        rows[knob] = (values[0], values[1])
    return ExtSensitivityResult(baseline=baseline, rows=rows)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: every variant trace is bespoke."""
    return plan_inputs.run_cell("ext_sensitivity", _compute, settings)
