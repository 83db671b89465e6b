"""Integration tests for the table experiments (reduced scale).

These run every table experiment end to end at a small trace length and
assert the paper's *qualitative* findings; the full-scale quantitative
comparison lives in the benchmarks and EXPERIMENTS.md.
"""

import pytest

from repro.experiments import table1, table3, table4, table5, table6, table7, table8
from repro.experiments.common import ExperimentSettings
from repro.plan.executor import run_experiment

SETTINGS = ExperimentSettings(n_instructions=150_000, seed=0)


@pytest.fixture(scope="module")
def t5():
    return run_experiment(table5, SETTINGS)[0]


class TestTable1:
    def test_rows_and_rendering(self):
        result = run_experiment(
            table1, ExperimentSettings(n_instructions=60_000, seed=0)
        )[0]
        assert set(result.rows) == set(table1.PAPER)
        text = result.render()
        assert "SPECint92" in text and "I-cache" in text

    def test_fp_pays_more_for_data(self):
        result = run_experiment(
            table1, ExperimentSettings(n_instructions=60_000, seed=0)
        )[0]
        assert (
            result.rows["specfp92"].data > result.rows["specint92"].data
        )


class TestTable3:
    def test_ibs_vs_spec_icache_gap(self):
        result = run_experiment(
            table3, ExperimentSettings(n_instructions=60_000, seed=0)
        )[0]
        ibs = result.rows["ibs-mach3"]
        spec = result.rows["specint92"]
        assert ibs.cpi_instr > 2 * spec.cpi_instr
        assert ibs.os_fraction > spec.os_fraction

    def test_mach_more_os_time_than_ultrix(self):
        result = run_experiment(
            table3, ExperimentSettings(n_instructions=60_000, seed=0)
        )[0]
        assert (
            result.rows["ibs-mach3"].os_fraction
            > result.rows["ibs-ultrix"].os_fraction
        )
        assert "Table 3" in result.render()


class TestTable4:
    def test_mpi_matches_paper_within_tolerance(self):
        result = run_experiment(table4, SETTINGS)[0]
        for name, row in result.workloads.items():
            paper_mpi = table4.PAPER_WORKLOADS[name][0]
            assert row.mpi_per_100 == pytest.approx(paper_mpi, rel=0.25), name

    def test_suite_ordering(self):
        result = run_experiment(table4, SETTINGS)[0]
        assert (
            result.averages["ibs-mach3"]
            > result.averages["ibs-ultrix"]
            > result.averages["spec92"]
        )

    def test_groff_exceeds_nroff(self):
        """The paper's C++-cost observation: groff's MPI is ~60% above
        nroff's on the same input."""
        result = run_experiment(table4, SETTINGS)[0]
        ratio = (
            result.workloads["groff"].mpi_per_100
            / result.workloads["nroff"].mpi_per_100
        )
        assert 1.3 < ratio < 2.1

    def test_render_includes_all_workloads(self):
        text = run_experiment(table4, SETTINGS)[0].render()
        for name in table4.PAPER_WORKLOADS:
            assert name in text


class TestTable5:
    def test_paper_values_within_tolerance(self, t5):
        for key, paper in table5.PAPER.items():
            ours = t5.cells[key]
            assert ours == pytest.approx(paper, rel=0.45), key

    def test_orderings(self, t5):
        cells = t5.cells
        # IBS far worse than SPEC on both configurations.
        assert cells[("economy", "ibs-mach3")] > 2 * cells[("economy", "spec92")]
        # High-performance memory always beats economy.
        assert (
            cells[("high-performance", "ibs-mach3")]
            < cells[("economy", "ibs-mach3")]
        )
        assert "Table 5" in t5.render()


class TestTable6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(table6, SETTINGS)[0]

    def test_prefetch_helps_small_lines(self, result):
        assert result.cells[(16, 1)] < result.cells[(16, 0)]
        assert result.cells[(16, 3)] < result.cells[(16, 1)]

    def test_longer_lines_help_without_prefetch(self, result):
        assert result.cells[(64, 0)] < result.cells[(32, 0)] < result.cells[(16, 0)]

    def test_paper_cells_within_tolerance(self, result):
        for key, paper in table6.PAPER.items():
            assert result.cells[key] == pytest.approx(paper, rel=0.30), key

    def test_render(self, result):
        assert "Table 6" in result.render()


class TestTable7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(table7, SETTINGS)[0]

    def test_bypass_never_hurts(self, result):
        for key in result.no_bypass:
            assert result.with_bypass[key] <= result.no_bypass[key] * 1.01

    def test_bypass_gain_substantial_at_zero_prefetch(self, result):
        assert result.with_bypass[(32, 0)] < 0.92 * result.no_bypass[(32, 0)]

    def test_render(self, result):
        assert "bypass" in result.render()


class TestTable8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(table8, SETTINGS)[0]

    def test_stream_buffer_saturates(self, result):
        for bw in table8.BANDWIDTHS:
            curve = [result.cells[(bw, n)] for n in table8.BUFFER_SIZES]
            assert curve[1] < curve[0]  # 1 line already helps a lot
            gain_first = curve[0] - curve[2]  # 0 -> 3 lines
            gain_last = curve[3] - curve[5]  # 6 -> 18 lines
            assert gain_first > 3 * gain_last  # diminishing returns

    def test_wider_interface_better(self, result):
        for n in table8.BUFFER_SIZES:
            assert result.cells[(32, n)] <= result.cells[(16, n)]

    def test_reduction_magnitude_matches_paper(self, result):
        """Paper: 6-line buffer cuts CPIinstr by ~66% (16 B/cyc)."""
        reduction = 1 - result.cells[(16, 6)] / result.cells[(16, 0)]
        assert 0.35 < reduction < 0.80

    def test_render(self, result):
        assert "stream buffer" in result.render()
