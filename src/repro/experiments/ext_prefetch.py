"""Extension — non-sequential prefetching (the paper's future work).

The paper closes: "This study did not consider more aggressive
(non-sequential) prefetching schemes...  we hope to encourage the
exploration of these more sophisticated hardware mechanisms on
demanding workloads."  This experiment is that exploration, on the same
configuration as Table 8 (8 KB direct-mapped L1, pipelined 6-cycle
interface):

* demand fetch (the Table 8 N=0 row),
* tagged sequential prefetch [Smith78] — one line of continuous
  lookahead keyed by first-use tag bits,
* sequential stream buffer (Table 8's mechanism, 4 lines),
* Markov (miss-correlation) prefetcher — follows taken branches and
  call targets sequential prefetch cannot,
* hybrid (Markov + next-sequential),
* and the stream buffer + Markov upper-bound pairing is left to the
  reader (the harness composes engines one at a time by design).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.fetch.engine import DemandFetchEngine
from repro.fetch.prefetch import TaggedPrefetchEngine
from repro.fetch.markov import MarkovPrefetchEngine
from repro.fetch.streambuf import StreamBufferEngine
from repro.fetch.timing import MemoryTiming
from repro.trace.rle import to_line_runs
from repro.workloads.registry import get_trace, suite_workloads
from repro.plan import inputs as plan_inputs

LINE_SIZE = 16
TIMING = MemoryTiming(latency=6, bytes_per_cycle=16)
GEOMETRY = CacheGeometry(8192, LINE_SIZE, 1)

SCHEMES = ("demand", "tagged", "stream-buffer-4", "markov", "hybrid")
SUITE = "ibs-mach3"


@dataclass(frozen=True)
class ExtPrefetchResult:
    """CPIinstr per workload per scheme."""

    cells: dict[tuple[str, str], float] = field(default_factory=dict)

    def render(self) -> str:
        workloads = sorted({w for w, _s in self.cells})
        headers = ["Workload", *SCHEMES]
        body = [
            [w, *(f"{self.cells[(w, s)]:.3f}" for s in SCHEMES)]
            for w in workloads
        ]
        means = [
            sum(self.cells[(w, s)] for w in workloads) / len(workloads)
            for s in SCHEMES
        ]
        body.append(["MEAN", *(f"{m:.3f}" for m in means)])
        return format_table(
            headers,
            body,
            title="Extension: non-sequential prefetching "
            "(L1 CPIinstr; 8 KB DM, 16 B lines, pipelined 6-cycle L2)",
        )

    def mean(self, scheme: str) -> float:
        """Suite-mean CPIinstr of one scheme."""
        values = [v for (_w, s), v in self.cells.items() if s == scheme]
        return sum(values) / len(values)


def _engine(scheme: str):
    if scheme == "demand":
        return DemandFetchEngine(GEOMETRY, TIMING)
    if scheme == "tagged":
        return TaggedPrefetchEngine(GEOMETRY, TIMING)
    if scheme == "stream-buffer-4":
        return StreamBufferEngine(GEOMETRY, TIMING, n_lines=4)
    if scheme == "markov":
        return MarkovPrefetchEngine(GEOMETRY, TIMING, n_buffers=4)
    if scheme == "hybrid":
        return MarkovPrefetchEngine(GEOMETRY, TIMING, n_buffers=4, hybrid=True)
    raise ValueError(f"unknown scheme {scheme!r}")


def _compute(settings: ExperimentSettings) -> ExtPrefetchResult:
    """One cell: compare prefetch schemes over a suite."""
    cells: dict[tuple[str, str], float] = {}
    for name, os_name in suite_workloads(SUITE):
        trace = get_trace(name, os_name, settings.n_instructions, settings.seed)
        runs = to_line_runs(trace.ifetch_addresses(), LINE_SIZE)
        for scheme in SCHEMES:
            engine = _engine(scheme)
            result = engine.run(runs, settings.warmup_fraction)
            cells[(name, scheme)] = result.cpi_instr
    return ExtPrefetchResult(cells=cells)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: history-based engines replay raw
    streams, so only the suite's traces are shared."""
    return plan_inputs.run_cell(
        "ext_prefetch", _compute, settings, suites=(SUITE,)
    )
