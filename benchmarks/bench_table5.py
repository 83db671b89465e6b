"""Benchmark: regenerate the paper's Table 5 (baseline CPIinstr)."""

from repro.experiments import table5
from repro.plan.executor import run_experiment


def test_table5(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(table5, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    cells = result.cells
    # Paper: economy IBS 1.77, high-performance IBS 0.72.
    assert abs(cells[("economy", "ibs-mach3")] - 1.77) < 0.30
    assert abs(cells[("high-performance", "ibs-mach3")] - 0.72) < 0.15
    # The economy/high-performance ratio is set by the penalty ratio
    # (37 vs 15 cycles): ~2.5x.
    ratio = (
        cells[("economy", "ibs-mach3")]
        / cells[("high-performance", "ibs-mach3")]
    )
    assert 2.2 < ratio < 2.8
    # SPEC is comfortable on both (paper 0.54 / 0.18).
    assert cells[("economy", "spec92")] < 0.7
    assert cells[("high-performance", "spec92")] < 0.3
