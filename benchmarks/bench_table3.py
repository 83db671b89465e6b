"""Benchmark: regenerate the paper's Table 3 (IBS vs SPEC memory CPI)."""

from repro.experiments import table3
from repro.plan.executor import run_experiment


def test_table3(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(table3, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    rows = result.rows
    # IBS spends far more time in the OS than SPEC (paper: 38%/24% vs 2-3%).
    assert rows["ibs-mach3"].os_fraction > 0.25
    assert rows["specint92"].os_fraction < 0.10
    # The I-cache CPI gap between IBS and SPEC is several-fold
    # (paper: 0.36 vs 0.05).
    assert rows["ibs-mach3"].cpi_instr > 3 * rows["specint92"].cpi_instr
    # Mach worse than Ultrix on the instruction side (0.36 vs 0.19).
    assert rows["ibs-mach3"].cpi_instr > rows["ibs-ultrix"].cpi_instr
