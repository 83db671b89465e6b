"""Benchmark: regenerate the paper's Table 6 (sequential prefetch-on-miss)."""

from repro.experiments import table6
from repro.plan.executor import run_experiment


def test_table6(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(table6, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    cells = result.cells
    # Every paper cell within 25%.
    for key, paper in table6.PAPER.items():
        assert abs(cells[key] - paper) / paper < 0.25, (
            f"line/N {key}: {cells[key]:.3f} vs paper {paper:.3f}"
        )
    # Prefetch depth helps small lines monotonically (paper's rows).
    assert cells[(16, 0)] > cells[(16, 1)] > cells[(16, 2)] > cells[(16, 3)]
    # 16 B + 3 prefetches is competitive with a plain 64 B line even
    # though both return 64 bytes per miss (paper: strictly better).
    assert cells[(16, 3)] < cells[(64, 0)] * 1.10
