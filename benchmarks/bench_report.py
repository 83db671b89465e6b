"""Per-experiment-vs-grid-wide timing of the report plan.

One benchmark, appending a ``report-dedup`` record to the
``BENCH_fetch.json`` trajectory at the repository root: a fixed set of
experiments with heavily-overlapping inputs runs twice, each pass in a
fresh subprocess with cold memos and no disk cache,

* **legacy** — the per-experiment comparator local to this benchmark:
  one pool cell per experiment, each running
  :func:`repro.plan.executor.run_experiment` with ``jobs=1`` in
  isolation, so every worker re-derives its experiment's traces,
  streams, and miss masks from scratch (what the report cost before
  plans were compiled grid-wide; recorded as ``legacy_seconds`` so the
  trajectory stays comparable);
* **plan** — :func:`repro.plan.executor.run_report`, the sweep-plan
  path: one compiled plan whose shared inputs are primed once in the
  parent before the pool forks, so workers inherit every warm memo.

Both passes use the same ``--jobs`` fan-out; the renderings must match
byte for byte and the plan pass must prime every declared shared input
(``inputs_primed == inputs_total``), so the speedup measures dedup
alone — never a behavior difference.  The within-run ratio is
machine-independent, which makes the absolute ``--min-speedup`` floor
(default 1.5x) meaningful in CI, unlike wall seconds.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_report.py
        [--instructions N] [--jobs N] [--out BENCH_fetch.json]
        [--min-speedup 1.5] [--check-against FILE]
        [--min-speedup-ratio 0.8]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

#: The measured experiment set: every module shares the ibs-mach3
#: traces (figure1 and table5 add spec92), and the L1/L2 demand-mask
#: geometries overlap heavily across figure3/figure4/figure7/table5.
#: The default ``--jobs 8`` gives the comparator one worker per
#: experiment — its best case for wall time, and exactly the setting
#: under which every worker re-derives the shared inputs privately.
MODULES = (
    "figure1", "figure3", "figure4", "figure7",
    "table4", "table5", "table6", "table8",
)


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def run_pass(mode: str, n_instructions: int, seed: int, jobs: int) -> dict:
    """One timing pass: this script re-executed as a fresh subprocess.

    A fresh interpreter per pass keeps the comparison honest: neither
    pass inherits the other's registry memos, line-order caches, or
    synthesized traces, and the default (disabled) disk cache means
    both pay cold-start synthesis — exactly what a cold ``repro
    report`` pays.
    """
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)  # force both passes cold
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable, __file__, "--pass", mode,
            "--instructions", str(n_instructions),
            "--seed", str(seed), "--jobs", str(jobs),
        ],
        env=env, capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"{mode} pass failed:\n{result.stdout}\n{result.stderr}"
        )
    return json.loads(result.stdout.splitlines()[-1])


def _render_experiment(name: str, settings) -> str:
    """Comparator cell: one whole experiment, planned in isolation."""
    from repro import experiments
    from repro.plan.executor import run_experiment

    result, _report = run_experiment(
        getattr(experiments, name), settings, jobs=1
    )
    return result.render()


def run_report_per_experiment(
    names: tuple[str, ...], settings, jobs: int
) -> list[tuple[str, str]]:
    """The comparator: one pool cell per experiment, no shared priming."""
    from repro.plan.ir import PlanCell
    from repro.runner.pool import run_cells

    cells = [
        PlanCell(key=(name,), fn=_render_experiment, args=(name, settings))
        for name in names
    ]
    renderings, _timings = run_cells(cells, jobs)
    return list(zip(names, renderings))


def _pass_body(mode: str, n_instructions: int, seed: int, jobs: int) -> int:
    """Subprocess body: run one pass, print its JSON record to stdout."""
    from repro import experiments
    from repro.experiments.common import ExperimentSettings

    settings = ExperimentSettings(n_instructions=n_instructions, seed=seed)
    start = time.perf_counter()
    if mode == "legacy":
        renderings = run_report_per_experiment(MODULES, settings, jobs)
        plan_stats = None
    else:
        from repro.plan.executor import run_report

        modules = {
            name: getattr(experiments, name) for name in MODULES
        }
        renderings, report = run_report(modules, settings, jobs=jobs)
        plan_stats = report.plan
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(
        "\n".join(rendering for _, rendering in renderings).encode()
    ).hexdigest()
    print(json.dumps({
        "mode": mode,
        "seconds": round(seconds, 4),
        "digest": digest,
        "plan": plan_stats,
    }))
    return 0


def bench_report_dedup(
    n_instructions: int, seed: int, jobs: int
) -> dict:
    """One trajectory record: per-experiment plans vs one grid-wide plan."""
    legacy = run_pass("legacy", n_instructions, seed, jobs)
    plan = run_pass("plan", n_instructions, seed, jobs)
    if legacy["digest"] != plan["digest"]:
        raise AssertionError(
            "grid-wide report renderings diverged from the per-experiment "
            "comparator"
        )
    stats = plan["plan"] or {}
    if stats.get("inputs_primed") != stats.get("inputs_total"):
        raise AssertionError(
            f"plan primed {stats.get('inputs_primed')} of "
            f"{stats.get('inputs_total')} declared shared inputs; "
            "priming must cover the whole plan"
        )
    return {
        "benchmark": "report-dedup",
        "modules": list(MODULES),
        "n_instructions": n_instructions,
        "seed": seed,
        "jobs": jobs,
        "legacy_seconds": legacy["seconds"],
        "plan_seconds": plan["seconds"],
        "speedup": round(legacy["seconds"] / plan["seconds"], 2),
        "renders_identical": True,
        "cells_total": stats.get("cells_total"),
        "inputs_total": stats.get("inputs_total"),
        "inputs_shared": stats.get("inputs_shared"),
        "inputs_primed": stats.get("inputs_primed"),
        "timestamp": _timestamp(),
    }


def load_trajectory(path: pathlib.Path) -> list[dict]:
    """The committed trajectory, or an empty one for a fresh file."""
    if not path.exists():
        return []
    trajectory = json.loads(path.read_text())
    if not isinstance(trajectory, list):
        raise ValueError(f"{path} is not a trajectory (expected a JSON list)")
    return trajectory


def check_regression(
    record: dict, baseline_path: pathlib.Path, min_ratio: float
) -> str | None:
    """``None`` if acceptable, else a message describing the regression."""
    history = [
        entry
        for entry in load_trajectory(baseline_path)
        if entry.get("benchmark") == record["benchmark"]
    ]
    if not history:
        return None
    baseline = history[-1]["speedup"]
    floor = min_ratio * baseline
    if record["speedup"] < floor:
        return (
            f"{record['benchmark']}: dedup speedup regressed: "
            f"{record['speedup']:.1f}x vs baseline {baseline:.1f}x "
            f"(floor {floor:.1f}x)"
        )
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instructions", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--out", default="BENCH_fetch.json")
    parser.add_argument(
        "--min-speedup", type=float, default=1.5,
        help="absolute within-run floor: fail when legacy/plan < this",
    )
    parser.add_argument(
        "--check-against", metavar="FILE",
        help="committed trajectory to gate the fresh speedup against",
    )
    parser.add_argument(
        "--min-speedup-ratio", type=float, default=0.8,
        help="fail when the speedup < ratio * the baseline's last record",
    )
    parser.add_argument("--pass", dest="pass_mode",
                        choices=("legacy", "plan"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.pass_mode:
        return _pass_body(
            args.pass_mode, args.instructions, args.seed, args.jobs
        )

    record = bench_report_dedup(args.instructions, args.seed, args.jobs)
    print(
        f"report-dedup ({len(MODULES)} experiments, {record['cells_total']} "
        f"plan cells @ {args.instructions:,} instructions, "
        f"jobs={args.jobs}):\n"
        f"  legacy: {record['legacy_seconds']:.2f}s\n"
        f"  plan:   {record['plan_seconds']:.2f}s "
        f"({record['inputs_primed']} shared inputs primed once, "
        f"{record['inputs_shared']} demanded by >1 cell)\n"
        f"  speedup: {record['speedup']:.1f}x (renders identical)"
    )

    out = pathlib.Path(args.out)
    trajectory = load_trajectory(out)
    trajectory.append(record)
    out.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    print(f"appended to {out} ({len(trajectory)} record(s))")

    failed = False
    if record["speedup"] < args.min_speedup:
        print(
            f"report-dedup: speedup {record['speedup']:.2f}x is below the "
            f"absolute floor {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if args.check_against:
        message = check_regression(
            record, pathlib.Path(args.check_against), args.min_speedup_ratio
        )
        if message is not None:
            print(message, file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
