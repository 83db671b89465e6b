"""Benchmark: regenerate the paper's Figure 1 (capacity/conflict misses)."""

from repro.experiments import figure1
from repro.plan.executor import run_experiment


def test_figure1(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(figure1, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    ibs = result.curves["ibs-mach3"]
    spec = result.curves["spec92"]

    # Paper's reading: IBS needs a 64 KB direct-mapped cache to match
    # SPEC's 8 KB performance.
    assert result.equivalent_ibs_size() in (32 * 1024, 64 * 1024, 128 * 1024)

    # Both curves decline monotonically with size.
    for curve in (ibs, spec):
        totals = [curve[s].total for s in sorted(curve)]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    # SPEC essentially fits by 64 KB (paper: near-zero bars).
    assert spec[64 * 1024].total < 0.004
    # IBS retains misses even at 256 KB (the bloat tail).
    assert ibs[256 * 1024].total > spec[256 * 1024].total

    # Conflict misses are a visible but minority share for IBS at 8 KB.
    ibs_8k = ibs[8 * 1024]
    assert 0.05 < ibs_8k.conflict / ibs_8k.total < 0.5
