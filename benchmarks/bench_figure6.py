"""Benchmark: regenerate the paper's Figure 6 (bandwidth vs line size)."""

from repro.experiments import figure6
from repro.plan.executor import run_experiment


def test_figure6(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(figure6, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    # More bandwidth never hurts, at any line size.
    for line in result.line_sizes:
        values = [result.cells[(bw, line)] for bw in result.bandwidths]
        assert all(a >= b for a, b in zip(values, values[1:])), line

    # Paper: the optimal line size grows with bandwidth...
    optima = [result.optimal_line_size(bw) for bw in result.bandwidths]
    assert optima == sorted(optima)
    assert optima[-1] >= 4 * optima[0]
    # ...and at 16 B/cyc the optimum sits at 32-128 B (paper: 64 B for
    # IBS, 128 B for SPEC).
    assert result.optimal_line_size(16) in (32, 64, 128)

    # Diminishing returns beyond 16 B/cyc (paper's motivation to stop
    # widening the bus and use prefetch/pipelining instead).
    best = {bw: min(result.cells[(bw, l)] for l in result.line_sizes)
            for bw in result.bandwidths}
    gain_4_to_16 = best[4] - best[16]
    gain_16_to_64 = best[16] - best[64]
    assert gain_4_to_16 > 1.5 * gain_16_to_64
