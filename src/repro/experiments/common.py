"""Shared experiment harness.

Each experiment sweeps configurations over workload suites; this module
provides the common plumbing: settings, cached trace access, and
suite-averaged evaluation helpers that experiments' plan cells call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.core.config import MemorySystemConfig
from repro.core.metrics import DEFAULT_WARMUP_FRACTION
from repro.core.study import ENGINES, StudyResult, evaluate_trace
from repro.plan import inputs as plan_inputs
from repro.trace.rle import LineRuns
from repro.trace.trace import Trace
from repro.workloads.registry import (
    DEFAULT_TRACE_INSTRUCTIONS,
    get_line_runs,
    get_trace,
    list_workloads,
    get_workload,
    suite_workloads,
)

__all__ = [
    "DEFAULT_SETTINGS",
    "ExperimentSettings",
    "FetchPoint",
    "canonical_job_key",
    "fetch_point",
    "settings_record",
    "suite_cpi_instr",
    "suite_evaluate",
    "suite_runs",
    "suite_traces",
    "sweep_fetch_cpi",
    "workloads_fingerprint",
]


@dataclass(frozen=True)
class ExperimentSettings:
    """Common knobs shared by every experiment.

    Attributes:
        n_instructions: trace length per workload.
        seed: synthesis seed (experiments are deterministic given it).
        warmup_fraction: measurement warmup window.
        engine: fetch-timing implementation (see
            :data:`repro.core.study.ENGINES`): ``"auto"`` takes the
            vectorized kernels where they apply, ``"reference"`` always
            steps the object engines, ``"vectorized"`` requires the
            kernels.
    """

    n_instructions: int = DEFAULT_TRACE_INSTRUCTIONS
    seed: int = 0
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )

    def scaled(self, factor: float) -> "ExperimentSettings":
        """A copy with the trace length scaled (tests use ~0.2)."""
        return ExperimentSettings(
            n_instructions=max(10_000, int(self.n_instructions * factor)),
            seed=self.seed,
            warmup_fraction=self.warmup_fraction,
            engine=self.engine,
        )


DEFAULT_SETTINGS = ExperimentSettings()


def settings_record(settings: ExperimentSettings) -> dict:
    """The JSON-stable record of one settings object (for cache keys).

    ``engine`` is deliberately absent: the differential tests pin the
    vectorized and reference paths bit-identical, so results computed
    under either engine are interchangeable and share cache/coalescing
    keys.
    """
    return {
        "n_instructions": settings.n_instructions,
        "seed": settings.seed,
        "warmup_fraction": settings.warmup_fraction,
    }


_workloads_fingerprint: str | None = None


def workloads_fingerprint() -> str:
    """One digest covering every registered workload's parameterization.

    Folds each workload's :func:`~repro.runner.cache.params_fingerprint`
    (which itself covers the generator version) into a single hash, so
    any recalibration, workload-set change, or synthesizer bump changes
    every canonical job key derived from it.  Computed once per process:
    the workload tables are module-level constants.
    """
    global _workloads_fingerprint
    if _workloads_fingerprint is None:
        from repro.runner.cache import params_fingerprint

        digests = [
            params_fingerprint(get_workload(name, os_name))
            for name, os_name in sorted(list_workloads())
        ]
        payload = json.dumps(digests).encode("utf-8")
        _workloads_fingerprint = hashlib.sha256(payload).hexdigest()
    return _workloads_fingerprint


def canonical_job_key(
    kind: str,
    name: str,
    settings: ExperimentSettings,
    extra: dict | None = None,
) -> str:
    """Content address of one serving-layer job.

    Hashes everything that determines the job's output — the job kind
    (``"experiment"`` / ``"evaluate"``), its target name, the full
    :class:`ExperimentSettings`, any request-specific knobs (``extra``:
    OS, configuration, mechanism...), and the workload/generator
    fingerprint — so two requests share a key exactly when their results
    are interchangeable.
    """
    payload = json.dumps(
        {
            "kind": kind,
            "name": name,
            "settings": settings_record(settings),
            "extra": extra or {},
            "workloads": workloads_fingerprint(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def suite_traces(
    suite: str, settings: ExperimentSettings = DEFAULT_SETTINGS
) -> list[Trace]:
    """All traces of a suite (cached by the workload registry)."""
    return [
        get_trace(name, os_name, settings.n_instructions, settings.seed)
        for name, os_name in suite_workloads(suite)
    ]


def suite_runs(
    suite: str,
    line_size: int,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[LineRuns]:
    """RLE instruction streams of a whole suite at one line size.

    Served through the registry's derived-artifact memoization: each
    (workload, line size) stream is encoded at most once per process
    and — with the on-disk cache enabled — once ever.
    """
    return [
        get_line_runs(name, os_name, settings.n_instructions, settings.seed,
                      line_size)
        for name, os_name in suite_workloads(suite)
    ]


def suite_evaluate(
    suite: str,
    config: MemorySystemConfig,
    mechanism: str = "demand",
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    **options,
) -> list[StudyResult]:
    """Evaluate a configuration over every workload of a suite."""
    return [
        evaluate_trace(
            trace,
            config,
            mechanism,
            warmup_fraction=settings.warmup_fraction,
            engine=settings.engine,
            **options,
        )
        for trace in suite_traces(suite, settings)
    ]


def suite_cpi_instr(
    suite: str,
    config: MemorySystemConfig,
    mechanism: str = "demand",
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    **options,
) -> tuple[float, float]:
    """Suite-mean (L1 CPIinstr, L2 CPIinstr) for one configuration."""
    results = suite_evaluate(suite, config, mechanism, settings, **options)
    return (
        float(np.mean([r.cpi_l1 for r in results])),
        float(np.mean([r.cpi_l2 for r in results])),
    )


@dataclass(frozen=True)
class FetchPoint:
    """One design point of a fetch-timing sweep.

    Attributes:
        key: the caller's identity for the point (dict key of the
            sweep's result).
        config: memory-system configuration to evaluate.
        mechanism: L1 refill mechanism name.
        options: mechanism options as sorted ``(name, value)`` pairs
            (hashable and picklable; build points with
            :func:`fetch_point`).
    """

    key: tuple
    config: MemorySystemConfig
    mechanism: str = "demand"
    options: tuple = ()


def fetch_point(
    key, config: MemorySystemConfig, mechanism: str = "demand", **options
) -> FetchPoint:
    """Build a :class:`FetchPoint` from keyword mechanism options."""
    return FetchPoint(
        key=tuple(key) if isinstance(key, (tuple, list)) else (key,),
        config=config,
        mechanism=mechanism,
        options=tuple(sorted(options.items())),
    )


def sweep_fetch_cpi(
    suite: str,
    points: list[FetchPoint],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> dict[tuple, tuple[float, float]]:
    """Suite-mean (L1, L2) CPIinstr for many design points, trace-major.

    The Figure 5-7 / Table 6 sweep planner: workloads iterate on the
    *outside* and design points on the inside, so each workload's RLE
    streams, miss masks, and mechanism state (all memoized per stream
    through :class:`~repro.caches.vectorized.LineOrderCache`) are
    computed once per (workload, line size) and shared across every
    L2-latency/width/mechanism point, instead of being rebuilt per
    point.  The geometry axis is batched too: before evaluating a
    trace's points, every mask shape the sweep needs is computed
    through one multi-geometry pass per (stream, set count) — one
    trace walk per (workload, line size).  Per-point arithmetic and
    averaging order are exactly :func:`suite_cpi_instr`'s, so results
    are bit-identical to running the points one at a time.
    """
    per_point: dict[tuple, tuple[list, list]] = {}
    for point in points:
        if point.key in per_point:
            raise ValueError(f"duplicate sweep point key {point.key!r}")
        per_point[point.key] = ([], [])
    plan = plan_inputs.mask_shape_plan(points, settings.engine)
    for trace in suite_traces(suite, settings):
        plan_inputs.prime_miss_masks(trace, plan)
        for point in points:
            result = evaluate_trace(
                trace,
                point.config,
                point.mechanism,
                warmup_fraction=settings.warmup_fraction,
                engine=settings.engine,
                **dict(point.options),
            )
            l1_values, l2_values = per_point[point.key]
            l1_values.append(result.cpi_l1)
            l2_values.append(result.cpi_l2)
    return {
        key: (float(np.mean(l1_values)), float(np.mean(l2_values)))
        for key, (l1_values, l2_values) in per_point.items()
    }
