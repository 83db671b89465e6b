"""Benchmark: regenerate the paper's Figure 4 (CPIinstr vs L2 associativity)."""

from repro.experiments import figure4
from repro.plan.executor import run_experiment


def test_figure4(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(figure4, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    for name in figure4.CONFIG_NAMES:
        curve = [result.cells[(name, a)] for a in figure4.ASSOCIATIVITIES]
        # Monotone improvement with associativity.
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    # Paper: ~25% reduction from direct-mapped to 2-way, then ~20% more
    # to 8-way (we check the direction and rough magnitudes).
    for name in figure4.CONFIG_NAMES:
        first_step = result.reduction(name, 1, 2)
        rest = result.reduction(name, 2, 8)
        assert 0.05 < first_step < 0.40
        assert first_step > rest * 0.8

    # Paper: economy + 8-way ~ high-performance + direct-mapped.
    economy_8way = result.cells[("economy", 8)]
    hp_direct = result.cells[("high-performance", 1)]
    assert abs(economy_8way - hp_direct) / hp_direct < 0.35
