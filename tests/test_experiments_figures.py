"""Integration tests for the figure experiments (reduced scale)."""

import pytest

from repro.experiments import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)
from repro.experiments.common import ExperimentSettings
from repro.plan.executor import run_experiment

SETTINGS = ExperimentSettings(n_instructions=150_000, seed=0)


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            figure1, SETTINGS, cache_sizes=(8192, 32768, 65536, 262144)
        )[0]

    def test_ibs_needs_8x_the_cache(self, result):
        """The paper's headline: IBS at 64 KB ~= SPEC at 8 KB."""
        equivalent = result.equivalent_ibs_size()
        assert equivalent >= 32 * 1024

    def test_curves_decline(self, result):
        for suite, curve in result.curves.items():
            totals = [curve[s].total for s in sorted(curve)]
            assert totals == sorted(totals, reverse=True), suite

    def test_ibs_above_spec_everywhere(self, result):
        for size in (8192, 32768, 65536):
            assert (
                result.curves["ibs-mach3"][size].total
                > result.curves["spec92"][size].total
            )

    def test_conflict_fraction_positive(self, result):
        ibs_8k = result.curves["ibs-mach3"][8192]
        assert ibs_8k.conflict > 0
        assert ibs_8k.capacity > ibs_8k.conflict  # capacity dominates

    def test_render(self, result):
        assert "Figure 1" in result.render()


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            figure2, ExperimentSettings(n_instructions=40_000, seed=0)
        )[0]

    def test_mach_runs_more_components(self, result):
        assert (
            result.active_components["ibs-mach3"]
            > result.active_components["spec92"]
        )
        assert result.active_components["ibs-mach3"] > 2.5

    def test_inventories(self, result):
        assert "Mach 3.0 (microkernel)" in result.inventories
        assert "BSD server" in result.inventories["Mach 3.0 (microkernel)"]
        assert "Figure 2" in result.render()


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            figure3, SETTINGS,
            l2_sizes=(16 * 1024, 64 * 1024),
            l2_line_sizes=(32, 64, 128),
        )[0]

    def test_l2_improves_economy_baseline(self, result):
        # Paper: "even the smallest L2 cache improves performance over
        # the baseline [economy], provided that the line size is tuned."
        best_small = min(
            value
            for (name, size, _line), value in result.cells.items()
            if name == "economy" and size == 16 * 1024
        )
        assert best_small < figure3.PAPER_BASELINES["economy"]

    def test_bigger_l2_better(self, result):
        for name in ("economy", "high-performance"):
            small = result.cells[(name, 16 * 1024, 64)]
            large = result.cells[(name, 64 * 1024, 64)]
            assert large < small

    def test_best_helper(self, result):
        size, line, value = result.best("economy")
        assert (("economy", size, line) in result.cells)
        assert value == min(
            v for (n, _s, _l), v in result.cells.items() if n == "economy"
        )

    def test_render(self, result):
        assert "Figure 3" in result.render()


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(figure4, SETTINGS)[0]

    def test_associativity_monotone(self, result):
        for name in figure4.CONFIG_NAMES:
            curve = [result.cells[(name, a)] for a in figure4.ASSOCIATIVITIES]
            assert curve == sorted(curve, reverse=True)

    def test_first_doubling_biggest_gain(self, result):
        """Paper: the 1->2 way step gives the single largest reduction."""
        for name in figure4.CONFIG_NAMES:
            first = result.reduction(name, 1, 2)
            second = result.reduction(name, 2, 4)
            third = result.reduction(name, 4, 8)
            assert first > second > third * 0.5

    def test_economy_8way_approaches_hp_direct(self, result):
        """Paper: economy + 8-way L2 ~= high-performance + DM L2."""
        economy_8 = result.cells[("economy", 8)]
        hp_1 = result.cells[("high-performance", 1)]
        assert economy_8 == pytest.approx(hp_1, rel=0.35)

    def test_render(self, result):
        assert "Figure 4" in result.render()


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            figure5, SETTINGS,
            cache_sizes=(16 * 1024, 64 * 1024),
            associativities=(1, 2),
            n_trials=4,
        )[0]

    def test_ibs_more_variable_than_spec(self, result):
        verilog = result.peak_std("verilog")
        eqntott = result.peak_std("eqntott")
        assert verilog > eqntott

    def test_associativity_damps_variability(self, result):
        for workload in ("verilog", "gs"):
            direct = result.peak_std(workload, ways=1)
            two_way = result.peak_std(workload, ways=2)
            assert two_way <= direct * 1.05

    def test_render(self, result):
        assert "Figure 5" in result.render()


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            figure6, SETTINGS,
            bandwidths=(4, 16, 64), line_sizes=(8, 16, 32, 64, 128),
        )[0]

    def test_bandwidth_always_helps(self, result):
        for line in result.line_sizes:
            assert (
                result.cells[(64, line)]
                <= result.cells[(16, line)]
                <= result.cells[(4, line)]
            )

    def test_optimal_line_grows_with_bandwidth(self, result):
        optima = [result.optimal_line_size(bw) for bw in (4, 16, 64)]
        assert optima == sorted(optima)
        assert optima[-1] > optima[0]

    def test_render_marks_optima(self, result):
        assert "*" in result.render()


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(figure7, SETTINGS)[0]

    def test_each_step_improves(self, result):
        for name in figure7.CONFIG_NAMES:
            totals = [result.total(name, step) for step in figure7.STEPS]
            for before, after in zip(totals, totals[1:]):
                assert after <= before * 1.02

    def test_l2_is_biggest_win_for_economy(self, result):
        steps = figure7.STEPS
        totals = [result.total("economy", step) for step in steps]
        drops = [a - b for a, b in zip(totals, totals[1:])]
        assert drops[0] == max(drops)  # the on-chip-L2 step

    def test_stubborn_floor_remains(self, result):
        """The paper's conclusion: ~0.2 CPIinstr remains after all
        optimizations for IBS."""
        final = result.total("high-performance", "pipelining")
        assert 0.08 < final < 0.45

    def test_render(self, result):
        assert "Figure 7" in result.render()
