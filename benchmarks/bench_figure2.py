"""Benchmark: regenerate the paper's Figure 2 (workload structure)."""

from repro.experiments import figure2
from repro.plan.executor import run_experiment


def test_figure2(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(figure2, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    # SPEC runs in ~2 domains (user + a sliver of kernel); IBS under
    # Mach spreads across 3-4 (kernel, BSD server, X server).
    assert result.active_components["spec92"] < 2.5
    assert result.active_components["ibs-mach3"] >= 3.0
    assert (
        result.active_components["ibs-mach3"]
        > result.active_components["ibs-ultrix"]
    )

    # The structural inventory matches the paper's diagram.
    mach = result.inventories["Mach 3.0 (microkernel)"]
    assert "BSD server" in mach and "X server" in mach
    ultrix = result.inventories["Ultrix (monolithic)"]
    assert "BSD server" not in ultrix
