"""Integration tests for the extension experiments and Table 2."""

import pytest

from repro.experiments import (
    ext_conflict,
    ext_multiissue,
    ext_placement,
    ext_prefetch,
    ext_subblock,
    table2,
)
from repro.experiments.common import ExperimentSettings
from repro.plan.executor import run_experiment

SETTINGS = ExperimentSettings(n_instructions=100_000, seed=0)


class TestTable2:
    def test_all_workloads_listed(self):
        result = run_experiment(table2, SETTINGS)[0]
        assert len(result.workloads) == 8
        text = result.render()
        assert "groff" in text and "Mach 3.0" in text

    def test_mach_has_more_layers(self):
        result = run_experiment(table2, SETTINGS)[0]
        assert result.os_layers["Mach 3.0"] > result.os_layers["Ultrix 3.1"]


class TestExtPrefetch:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ext_prefetch, SETTINGS)[0]

    def test_every_scheme_beats_demand(self, result):
        demand = result.mean("demand")
        for scheme in ("stream-buffer-4", "markov", "hybrid"):
            assert result.mean(scheme) < demand, scheme

    def test_hybrid_beats_pure_markov(self, result):
        assert result.mean("hybrid") < result.mean("markov")

    def test_sequential_structure_dominates(self, result):
        """On instruction streams, sequential lookahead (stream buffer)
        remains the strongest single mechanism — the reason the paper's
        Table 8 focuses there."""
        assert result.mean("stream-buffer-4") <= result.mean("markov")

    def test_render(self, result):
        assert "non-sequential" in result.render()


class TestExtConflict:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ext_conflict, SETTINGS, sizes=(8192, 32768))[0]

    def test_associativity_is_the_strongest_remedy(self, result):
        for size in (8192, 32768):
            dm = result.cells[(size, "direct-mapped")]
            assert result.cells[(size, "2-way")] < dm
            assert result.cells[(size, "8-way")] <= result.cells[(size, "2-way")]
            # The paper's implied ranking: associativity beats the
            # reactive CML mechanism.
            assert result.cells[(size, "2-way")] < result.cells[(size, "cml")]

    def test_victim_cache_between_dm_and_2way(self, result):
        for size in (8192, 32768):
            dm = result.cells[(size, "direct-mapped")]
            assert result.cells[(size, "victim-4")] <= dm * 1.01

    def test_cml_roughly_neutral(self, result):
        """CML detects conflicts only after they hurt (the paper's
        criticism); at these cache sizes recoloring is near-neutral."""
        for size in (8192, 32768):
            dm = result.cells[(size, "direct-mapped")]
            assert result.cells[(size, "cml")] == pytest.approx(dm, rel=0.10)

    def test_render(self, result):
        assert "remedies" in result.render()


class TestExtPlacement:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            ext_placement, SETTINGS,
            workload_names=("groff", "nroff", "gs", "mpeg_play"),
        )[0]

    def test_placement_helps_isolated_user_tasks(self, result):
        # The placement literature's setting: single task, own cache.
        assert result.mean_user_reduction() > 0.02

    def test_interleaving_erodes_the_gain(self, result):
        # The OS-intensive setting: cross-component interference leaves
        # per-task placement roughly neutral.
        assert result.mean_reduction() < result.mean_user_reduction()
        assert abs(result.mean_reduction()) < 0.15

    def test_render(self, result):
        assert "placement" in result.render()


class TestExtSubblock:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ext_subblock, SETTINGS)[0]

    def test_all_three_configurations_close(self, result):
        """The paper's footnote: the three designs land in the same
        performance class."""
        values = list(result.cells.values())
        assert max(values) < 1.6 * min(values)

    def test_render(self, result):
        assert "sub-block" in result.render()


class TestExtMultiIssue:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ext_multiissue, SETTINGS)[0]

    def test_ibs_floor_dominates_wide_issue(self, result):
        assert result.stall_share("ibs-mach3", 4) > 0.30
        assert result.stall_share("spec92", 4) < result.stall_share(
            "ibs-mach3", 4
        )

    def test_monotone_in_width(self, result):
        shares = [result.stall_share("ibs-mach3", w) for w in (1, 2, 4, 8)]
        assert shares == sorted(shares)

    def test_render(self, result):
        assert "multi-issue" in result.render()


class TestExtContext:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_context

        return run_experiment(ext_context, SETTINGS)[0]

    def test_sharing_always_costs(self, result):
        from repro.experiments.ext_context import QUANTA, SIZES

        for size in SIZES:
            for quantum in QUANTA:
                assert result.overhead(size, quantum) > 0

    def test_shorter_quanta_cost_more(self, result):
        from repro.experiments.ext_context import SIZES

        for size in SIZES:
            assert result.overhead(size, 1_000) > result.overhead(size, 20_000)

    def test_render(self, result):
        assert "multiprogramming" in result.render()


class TestExtComponents:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_components

        return run_experiment(
            ext_components, SETTINGS,
            workload_names=("groff", "mpeg_play", "gs"),
        )[0]

    def test_shares_sum_to_one(self, result):
        for workload, shares in result.rows.items():
            assert sum(s.execution for s in shares.values()) == pytest.approx(
                1.0, abs=0.01
            )
            assert sum(s.misses for s in shares.values()) == pytest.approx(
                1.0, abs=0.01
            )

    def test_minor_components_miss_disproportionately(self, result):
        """OS/server code runs in short scattered bursts, so components
        with small execution shares show concentration > 1."""
        from repro.trace.record import Component

        elevated = 0
        total = 0
        for shares in result.rows.values():
            for component, share in shares.items():
                if component != Component.USER and share.execution < 0.25:
                    total += 1
                    if share.concentration > 1.0:
                        elevated += 1
        assert total > 0
        assert elevated / total > 0.6

    def test_render(self, result):
        assert "attribution" in result.render()


class TestExtSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_sensitivity

        return run_experiment(
            ext_sensitivity, ExperimentSettings(n_instructions=80_000, seed=0)
        )[0]

    def test_expected_directions(self, result):
        from repro.experiments.ext_sensitivity import KNOBS

        for knob, (_lo, _hi, expected) in KNOBS.items():
            if expected == 0:
                continue
            assert result.slope_sign(knob) == expected, knob

    def test_baseline_near_calibration(self, result):
        assert 5.0 < result.baseline < 8.0

    def test_render(self, result):
        assert "sensitivity" in result.render()


class TestFigure4LookupPenaltyAblation:
    def test_penalty_raises_cpi_but_keeps_ordering(self):
        from repro.experiments import figure4

        plain = run_experiment(figure4, SETTINGS)[0]
        penalized = run_experiment(
            figure4, SETTINGS, associative_lookup_penalty=True
        )[0]
        # Associative points pay more with the penalty; DM unchanged.
        for config in figure4.CONFIG_NAMES:
            assert penalized.cells[(config, 1)] == pytest.approx(
                plain.cells[(config, 1)]
            )
            assert penalized.cells[(config, 8)] > plain.cells[(config, 8)]
            # The paper's footnote: the penalty does not overturn the
            # benefit of associativity.
            assert penalized.cells[(config, 8)] < penalized.cells[(config, 1)]


class TestExtMethodology:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_methodology

        return run_experiment(ext_methodology, SETTINGS)[0]

    def test_additive_method_is_accurate(self, result):
        """The paper's independent-measurement method agrees with one
        integrated simulation within ~15%."""
        assert abs(result.additive_error) < 0.15

    def test_shared_l2_is_a_real_lower_bound(self, result):
        """The paper: instruction-only L2 results 'represent a lower
        bound relative to an actual system'.  Sharing with data indeed
        raises fetch CPI substantially."""
        assert result.shared_data_penalty > 0.10

    def test_render(self, result):
        assert "methodology" in result.render()


class TestExtBranch:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_branch

        return run_experiment(ext_branch, SETTINGS)[0]

    def test_ibs_redirects_cost_more_than_spec(self, result):
        from repro.experiments.ext_branch import BTB_SIZES

        for size in BTB_SIZES:
            ibs = result.cells[("ibs-mach3", size)][1]
            spec = result.cells[("spec92", size)][1]
            assert ibs > spec

    def test_capacity_is_not_the_bottleneck(self, result):
        """The interesting (negative) finding: growing the BTB 64x
        barely moves the misprediction rate — bloated code's redirect
        problem is inherent transfer richness, not table capacity."""
        from repro.experiments.ext_branch import BTB_SIZES

        for suite in ("ibs-mach3", "spec92"):
            small = result.cells[(suite, min(BTB_SIZES))][1]
            large = result.cells[(suite, max(BTB_SIZES))][1]
            assert abs(large - small) < 0.35 * small

    def test_rates_in_plausible_band(self, result):
        for (suite, _size), (taken, mispredict) in result.cells.items():
            assert 0.05 < taken < 0.40
            assert 0.02 < mispredict < 0.35

    def test_render(self, result):
        assert "branch" in result.render()


class TestExtArea:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_area

        return run_experiment(
            ext_area, ExperimentSettings(n_instructions=80_000, seed=0),
            budgets=ext_area.BUDGETS_RBE[:2],
        )[0]

    def test_ibs_best_always_includes_associative_l2(self, result):
        from repro.experiments import ext_area

        for budget in ext_area.BUDGETS_RBE[:2]:
            best = result.best("ibs-mach3", budget)
            assert best.l2 is not None
            assert best.l2.associativity > 1

    def test_more_area_never_hurts(self, result):
        from repro.experiments import ext_area

        budgets = ext_area.BUDGETS_RBE[:2]
        for suite in ("ibs-mach3", "spec92"):
            values = [result.best(suite, b).cpi_instr for b in budgets]
            assert values == sorted(values, reverse=True)

    def test_ibs_has_more_cpi_at_stake(self, result):
        from repro.experiments import ext_area

        for budget in ext_area.BUDGETS_RBE[:2]:
            assert result.stakes("ibs-mach3", budget) > 2 * result.stakes(
                "spec92", budget
            )

    def test_render(self, result):
        assert "die-area" in result.render()


class TestExtTlb:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_tlb

        return run_experiment(
            ext_tlb, SETTINGS, workload_names=("gs", "sdet", "nroff")
        )[0]

    def test_mach_tlb_costs_more(self, result):
        for name in ("gs", "sdet", "nroff"):
            mach = result.rows[(name, "mach3")]
            ultrix = result.rows[(name, "ultrix")]
            assert mach.cpi_taxonomy > ultrix.cpi_taxonomy

    def test_effective_refill_above_user_fast_path(self, result):
        from repro.tlb.mach_tlb import USER_REFILL_CYCLES

        assert result.mean_effective_refill("mach3") > USER_REFILL_CYCLES

    def test_os_heavy_workloads_take_fewer_fast_paths(self, result):
        # sdet (70% kernel) takes a smaller user-path share than nroff
        # (80% user).
        assert (
            result.rows[("sdet", "mach3")].user_miss_share
            < result.rows[("nroff", "mach3")].user_miss_share
        )

    def test_render(self, result):
        assert "taxonomy" in result.render()


class TestExtSampling:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_sampling

        return run_experiment(
            ext_sampling, ExperimentSettings(n_instructions=200_000, seed=0),
            fractions=(0.1, 0.5),
        )[0]

    def test_errors_bounded(self, result):
        for (_suite, _fraction), (error, _speedup) in result.cells.items():
            assert error < 0.30

    def test_more_sampling_never_less_accurate_much(self, result):
        small = result.error("ibs-mach3", 0.1)
        large = result.error("ibs-mach3", 0.5)
        assert large <= small + 0.05

    def test_speedup_decreases_with_fraction(self, result):
        assert (
            result.cells[("ibs-mach3", 0.1)][1]
            > result.cells[("ibs-mach3", 0.5)][1]
        )

    def test_render(self, result):
        assert "sampled" in result.render()


class TestExtBloat:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_bloat

        return run_experiment(
            ext_bloat, ExperimentSettings(n_instructions=100_000, seed=0),
            stages=(("1x", 1.0, 1.0), ("1.5x", 1.5, 0.8), ("3x", 3.0, 0.6)),
        )[0]

    def test_mpi_monotone_in_bloat(self, result):
        series = result.mpi_series()
        assert series == sorted(series)

    def test_optimized_system_cpi_grows(self, result):
        values = [s.cpi_optimized for s in result.stages.values()]
        assert values[-1] > values[0]
        assert result.growth() > 1.3

    def test_render(self, result):
        assert "bloat" in result.render()
