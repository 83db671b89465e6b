"""Benchmark: regenerate the paper's Table 7 (prefetching + bypassing)."""

from repro.experiments import table7
from repro.plan.executor import run_experiment


def test_table7(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(table7, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    # Bypass reduces CPIinstr at every configuration point.
    for key, without in result.no_bypass.items():
        assert result.with_bypass[key] <= without * 1.01, key

    # Paper's with-bypass cells within 35% (the bypass model has the
    # most modelling freedom of the mechanisms).
    for key, paper in table7.PAPER_WITH_BYPASS.items():
        ours = result.with_bypass[key]
        assert abs(ours - paper) / paper < 0.35, (
            f"{key}: {ours:.3f} vs paper {paper:.3f}"
        )

    # Paper's headline comparison: bypassing turns a 32 B-line miss
    # from a full-line wait into a first-word wait — a >10% gain at N=0.
    assert result.with_bypass[(32, 0)] < 0.92 * result.no_bypass[(32, 0)]
