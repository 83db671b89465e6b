"""Calibration regression tests.

The shipped workload definitions were calibrated against the paper's
Table 4 (see ``tools/calibrate.py``).  These tests pin that calibration:
if a synthesizer change shifts the workload models' miss behaviour,
they fail and the calibration must be re-run.

Re-pinned for generator v2 (the batched synthesizer): the targets and
tolerances are unchanged, but the per-workload estimator now averages
four seeds instead of two — v2 synthesis is cheap enough that the
tighter estimate costs nothing, and it keeps single-seed layout
variance (the paper's Figure 5 effect) from dominating the comparison.
"""

import numpy as np
import pytest

from repro.caches.base import CacheGeometry
from repro.core.metrics import measure_mpi
from repro.experiments import figure1
from repro.experiments.common import ExperimentSettings
from repro.plan.executor import run_experiment
from repro.trace.rle import to_line_runs
from repro.workloads.generator import synthesize_trace
from repro.workloads.ibs import IBS_WORKLOADS
from repro.workloads.registry import get_workload, suite_workloads

REFERENCE = CacheGeometry(8192, 32, 1)
N = 300_000


def _mpi(workload, n=N, seeds=(1, 2, 3, 4)):
    """Mean MPI over a few seeds (individual runs vary with code
    layout, exactly as the paper's Figure 5 documents for real runs)."""
    values = []
    for seed in seeds:
        trace = synthesize_trace(workload, n, seed=seed)
        runs = to_line_runs(trace.ifetch_addresses(), 32)
        values.append(measure_mpi(runs, REFERENCE).mpi_per_100)
    return float(np.mean(values))


@pytest.mark.parametrize("name", sorted(IBS_WORKLOADS))
def test_ibs_workload_hits_table4_target(name):
    workload = IBS_WORKLOADS[name]
    assert _mpi(workload) == pytest.approx(workload.target_mpi_8kb, rel=0.15)


def test_ibs_suite_average():
    values = [_mpi(w, n=150_000) for w in IBS_WORKLOADS.values()]
    assert float(np.mean(values)) == pytest.approx(4.79, rel=0.12)


def test_ultrix_suite_average():
    values = [
        _mpi(get_workload(name, "ultrix"), n=150_000)
        for name in IBS_WORKLOADS
    ]
    assert float(np.mean(values)) == pytest.approx(3.52, rel=0.15)


def test_spec92_suite_average():
    values = [
        _mpi(get_workload(name, os_name), n=150_000)
        for name, os_name in suite_workloads("spec92")
    ]
    assert float(np.mean(values)) == pytest.approx(1.10, rel=0.25)


def test_spec_size_ordering():
    """Gee et al.'s characterization: eqntott small, espresso medium,
    gcc large."""
    eqntott = _mpi(get_workload("eqntott", "spec92"), n=150_000)
    espresso = _mpi(get_workload("espresso", "spec92"), n=150_000)
    gcc = _mpi(get_workload("gcc", "spec92"), n=150_000)
    assert eqntott < espresso < gcc


def test_line_size_sensitivity_matches_paper():
    """Table 6 anchors imply MPI(16B)/MPI(32B) ~ 1.53 and
    MPI(64B)/MPI(32B) ~ 0.69 for the IBS average."""
    ratios_16 = []
    ratios_64 = []
    for name in IBS_WORKLOADS:
        trace = synthesize_trace(IBS_WORKLOADS[name], 150_000, seed=1)
        runs16 = to_line_runs(trace.ifetch_addresses(), 16)
        mpi = {
            ls: measure_mpi(
                runs16, CacheGeometry(8192, ls, 1)
            ).mpi_per_100
            for ls in (16, 32, 64)
        }
        ratios_16.append(mpi[16] / mpi[32])
        ratios_64.append(mpi[64] / mpi[32])
    assert float(np.mean(ratios_16)) == pytest.approx(1.53, rel=0.15)
    assert float(np.mean(ratios_64)) == pytest.approx(0.69, rel=0.15)


def test_figure1_curve_keeps_shape():
    """The Figure 1 miss-vs-size curves must keep their shape under a
    generator bump: monotone non-increasing in cache size, IBS above
    SPEC at every size (the paper's headline gap), and the IBS knee —
    the size where IBS first matches SPEC's 8 KB level — in the same
    32 KB-or-larger band the paper reports (64 KB; at this reduced
    trace length the compulsory floor pushes the crossing to the large
    end, so only the lower edge is pinned)."""
    settings = ExperimentSettings(n_instructions=100_000, seed=1)
    result = run_experiment(figure1, settings)[0]
    totals = {
        suite: [curve[size].total for size in figure1.CACHE_SIZES]
        for suite, curve in result.curves.items()
    }
    for suite, curve in totals.items():
        assert all(
            later <= earlier
            for earlier, later in zip(curve, curve[1:])
        ), f"{suite} miss curve is not monotone in cache size"
    spec, ibs = totals["spec92"], totals["ibs-mach3"]
    assert all(i > s for i, s in zip(ibs, spec))
    assert result.equivalent_ibs_size() >= 32 * 1024
