"""Benchmark: regenerate the paper's Table 8 (pipelined + stream buffer)."""

from repro.experiments import table8
from repro.plan.executor import run_experiment


def test_table8(benchmark, settings, report):
    result, _timing = benchmark.pedantic(
        run_experiment, args=(table8, settings), rounds=1, iterations=1
    )
    report.append(result.render())

    cells = result.cells
    for bw in table8.BANDWIDTHS:
        curve = [cells[(bw, n)] for n in table8.BUFFER_SIZES]
        # Monotone improvement with buffer depth.
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        # Paper: "stream buffers can effectively improve I-fetch
        # performance until the buffer size reaches about 6 lines";
        # the 0->6 gain dwarfs the 6->18 gain.
        assert (curve[0] - curve[3]) > 2.5 * (curve[3] - curve[5])

    # Paper's magnitude: a 6-line buffer cuts CPIinstr by 66% (16 B/cyc)
    # and 59% (32 B/cyc); allow a generous band.
    for bw, paper_cut in ((16, 0.66), (32, 0.59)):
        cut = 1 - cells[(bw, 6)] / cells[(bw, 0)]
        assert abs(cut - paper_cut) < 0.25, f"{bw} B/cyc cut {cut:.2f}"
