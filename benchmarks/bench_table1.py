"""Benchmark: regenerate the paper's Table 1 (SPEC memory-CPI breakdown)."""

from repro.experiments import table1
from repro.plan.executor import run_experiment


def test_table1(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(table1, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    # Qualitative checks the paper draws from Table 1:
    rows = result.rows
    # FP suites lose far more CPI to data than instruction fetches.
    assert rows["specfp92"].data > rows["specfp92"].instr_l1
    # SPEC I-cache CPI is small on a 64 KB cache (the premise that SPEC
    # does not stress instruction fetching).
    assert rows["specint92"].instr_l1 < 0.2
    # SPEC92 no more I-demanding than SPEC89 (the suites got easier).
    assert rows["specint92"].instr_l1 <= rows["specint89"].instr_l1 * 1.5
