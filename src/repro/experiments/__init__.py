"""One module per table and figure of the paper's evaluation.

Every module is specified once, as a sweep plan (:mod:`repro.plan`):

* ``plan_cells(settings, **overrides) -> list[PlanCell]`` — the cells
  that compute the experiment, annotated with the shared inputs they
  read;
* ``merge(settings, results, **overrides) -> <Result dataclass>`` —
  present when there is more than one cell; reassembles the cell
  results; and
* ``Result.render() -> str`` — a text table/series mirroring the
  paper's presentation, including the paper's own numbers alongside the
  reproduction for direct comparison.

Run one with :func:`repro.plan.executor.run_experiment`; its keyword
overrides (a smaller sweep, a subset of workloads) reach ``plan_cells``
and ``merge``, and ``settings`` carries the ``n_instructions``/``seed``
knobs tests use to run scaled-down versions.

The mapping to the paper:

========  ==========================================================
module    reproduces
========  ==========================================================
table1    Table 1  — SPEC memory-CPI breakdown on the DECstation 3100
table2    Table 2  — the IBS workload inventory
table3    Table 3  — IBS vs SPEC memory-CPI breakdown
table4    Table 4  — per-workload MPI and component mix (8 KB I-cache)
table5    Table 5  — baseline CPIinstr (economy / high-performance)
table6    Table 6  — sequential prefetch-on-miss
table7    Table 7  — prefetching + bypassing
table8    Table 8  — pipelined memory system with stream buffers
figure1   Figure 1 — capacity/conflict misses vs cache size
figure2   Figure 2 — workload component structure (SPEC vs IBS)
figure3   Figure 3 — total CPIinstr vs L2 line size and cache size
figure4   Figure 4 — CPIinstr vs L2 associativity
figure5   Figure 5 — CPIinstr variability vs size and associativity
figure6   Figure 6 — bandwidth and L1 CPIinstr vs line size
figure7   Figure 7 — cumulative summary of all optimizations
========  ==========================================================

Extension studies (``EXTENSION_EXPERIMENTS``) go beyond the paper:

===============  ====================================================
ext_prefetch     future work: tagged / Markov / hybrid prefetching
ext_branch       future work: branch prediction x fetching (BTB)
ext_conflict     victim cache vs CML vs associativity
ext_context      multiprogramming / context-switch quanta [Mogul91]
ext_placement    profile-guided code placement [McFarling89]
ext_subblock     the Section 5.2 sub-block footnote
ext_components   per-component miss attribution
ext_multiissue   the conclusion's dual/quad-issue projection
ext_methodology  additive vs integrated two-level accounting
ext_area         die-area allocation via the Mulder model [Nagle94]
ext_tlb          software-TLB cost taxonomy [Nagle93]
ext_sampling     time-sampled simulation accuracy/cost frontier
ext_sensitivity  workload-model knob sensitivity (robustness)
ext_bloat        the title's trend, forward-projected
===============  ====================================================
"""

from repro.experiments import (
    ext_area,
    ext_bloat,
    ext_branch,
    ext_components,
    ext_conflict,
    ext_context,
    ext_methodology,
    ext_multiissue,
    ext_placement,
    ext_prefetch,
    ext_tlb,
    ext_sampling,
    ext_sensitivity,
    ext_subblock,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)

ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "table8": table8,
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
}

#: Studies beyond the paper: its stated future work (non-sequential
#: prefetching), the software methods it cites but does not evaluate
#: (placement, page policies), its Section 5.2 sub-block footnote, and
#: the multi-issue projection behind its conclusion.
EXTENSION_EXPERIMENTS = {
    "ext_prefetch": ext_prefetch,
    "ext_conflict": ext_conflict,
    "ext_context": ext_context,
    "ext_components": ext_components,
    "ext_sensitivity": ext_sensitivity,
    "ext_methodology": ext_methodology,
    "ext_branch": ext_branch,
    "ext_area": ext_area,
    "ext_tlb": ext_tlb,
    "ext_sampling": ext_sampling,
    "ext_bloat": ext_bloat,
    "ext_placement": ext_placement,
    "ext_subblock": ext_subblock,
    "ext_multiissue": ext_multiissue,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "EXTENSION_EXPERIMENTS",
    *ALL_EXPERIMENTS,
    *EXTENSION_EXPERIMENTS,
]
