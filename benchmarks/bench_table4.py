"""Benchmark: regenerate the paper's Table 4 (per-workload MPI)."""

import numpy as np

from repro.experiments import table4
from repro.plan.executor import run_experiment


def test_table4(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(table4, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    # Per-workload MPI within 20% of the paper's measurement.
    for name, row in result.workloads.items():
        paper = table4.PAPER_WORKLOADS[name][0]
        assert abs(row.mpi_per_100 - paper) / paper < 0.20, (
            f"{name}: {row.mpi_per_100:.2f} vs paper {paper:.2f}"
        )

    # Suite averages (paper: 4.79 / 3.52 / 1.10).
    assert abs(result.averages["ibs-mach3"] - 4.79) < 0.5
    assert abs(result.averages["ibs-ultrix"] - 3.52) < 0.5
    assert abs(result.averages["spec92"] - 1.10) < 0.35

    # Mach ~35% above Ultrix for the same applications.
    ratio = result.averages["ibs-mach3"] / result.averages["ibs-ultrix"]
    assert 1.15 < ratio < 1.6
