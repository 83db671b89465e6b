"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload report|serve-hit|serve-mixed
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Prints the workload's own metrics (value, unit and the samples behind
each), a ``perfbench-table`` JSON line that ``compare.py`` reads, and
as the last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Exits 1 when
an output is wrong, 2 when the program or an input is missing.

    python3 perfbench/run.py --record-digest --seed N

renders the report for seed ``N`` and commits its digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("report", "serve-hit", "serve-mixed")


class Context:
    """Where a run executes: checkout root, scratch dir, child env."""

    def __init__(self):
        self.root = ROOT
        self.work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
        self.launcher = os.path.join(HERE, "launch.py")
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
        self.env = env


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digest and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return _fail(f"no program to measure: {SRC}/repro is missing", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)

    ctx = Context()
    os.makedirs(ctx.work, exist_ok=True)
    try:
        import report_workload
        import serve_workload

        if args.record_digest:
            print(report_workload.record_digest(ctx, args.seed))
            return 0
        if args.workload == "report":
            result = report_workload.run(ctx, args.seed, args.seconds, args.trace)
        else:
            result = serve_workload.run(
                ctx, args.workload, args.seed, args.seconds, args.trace
            )
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc()
        return _fail(f"{args.workload} run failed", 1)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in listed:
        value = result["metrics"].get(entry["name"])
        if value is None:
            return _fail(f"{args.workload} produced no {entry['name']}", 1)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for name, unit, value, samples in result["table"]:
        print(f"{args.workload:12s} " + stats.describe(name, unit, value, samples))
    print("perfbench-table " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {
            name: {"value": value, "unit": unit, "n": stats.count(samples)}
            for name, unit, value, samples in result["table"]
        },
    }))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
