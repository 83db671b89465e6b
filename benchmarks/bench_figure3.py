"""Benchmark: regenerate the paper's Figure 3 (CPIinstr vs L2 geometry)."""

from repro.experiments import figure3
from repro.plan.executor import run_experiment


def test_figure3(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(figure3, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    cells = result.cells

    # Paper: "even the smallest L2 cache improves performance over the
    # baseline [economy], provided that the line size is tuned."
    best_16k = min(
        v for (n, s, _l), v in cells.items()
        if n == "economy" and s == 16 * 1024
    )
    assert best_16k < figure3.PAPER_BASELINES["economy"]

    # Paper: "the high-performance system requires at least a 32-KB or
    # 64-KB on-chip L2 cache to improve over its baseline."
    best_hp_16k = min(
        v for (n, s, _l), v in cells.items()
        if n == "high-performance" and s == 16 * 1024
    )
    best_hp_64k = min(
        v for (n, s, _l), v in cells.items()
        if n == "high-performance" and s == 64 * 1024
    )
    assert best_hp_64k < figure3.PAPER_BASELINES["high-performance"]
    assert best_hp_64k < best_hp_16k

    # Paper: "at 64-KB, the economy configuration's performance matches
    # the high-performance baseline configuration."
    best_eco_64k = min(
        v for (n, s, _l), v in cells.items()
        if n == "economy" and s == 64 * 1024
    )
    assert best_eco_64k < figure3.PAPER_BASELINES["high-performance"] * 1.25

    # The L1-behind-L2 contribution sits near the paper's 0.34.
    assert abs(result.l1_contribution - 0.34) < 0.08
