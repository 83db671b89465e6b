"""Regenerate every table and figure and write the full report.

Run from the repository root:

    python tools/make_report.py [--instructions N] [--out report.txt]

This is what EXPERIMENTS.md's measured numbers come from.  The report
executes as one compiled sweep plan (the same path as ``repro report``),
so every table and figure shares one set of primed traces.
"""

from __future__ import annotations

import argparse

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentSettings
from repro.plan.executor import run_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instructions", type=int, default=400_000)
    parser.add_argument("--out", default="report.txt")
    args = parser.parse_args()

    settings = ExperimentSettings(n_instructions=args.instructions, seed=0)
    renderings, report = run_report(ALL_EXPERIMENTS, settings)
    for name, _text in renderings:
        seconds = sum(
            cell.wall_seconds for cell in report.cells if cell.key[0] == name
        )
        print(f"{name}: {seconds:.1f}s in cells")
    print(f"report: {report.wall_seconds:.1f}s wall")
    with open(args.out, "w") as handle:
        handle.write("\n\n\n".join(text for _, text in renderings) + "\n")
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
