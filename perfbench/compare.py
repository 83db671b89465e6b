"""Compare a parent and a change with alternating benchmark runs.

    python3 perfbench/compare.py --parent DIR --change DIR
        [--workload W ...] [--pairs 10] [--first-seed 1000] [--out FILE]
    python3 perfbench/compare.py --results FILE

``DIR`` is the root of a checkout of each commit; both must carry
byte-identical benchmark files.  Pair ``i`` runs seed ``first-seed + i``
on both sides, the parent first on even pairs and the change first on
odd ones.  Every run's result lines are appended to ``FILE`` (JSON
lines), which ``--results`` reads back to redo the verdicts.

Verdicts, per workload and metric:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither side), its median beats the parent's by more than the
  parent's own spread (distance between its quartiles), and it failed
  no more operations than the parent;
* ``regression``: its median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: the parent's spread is wider than the bound and not
  every change run beats every parent run;
* ``within bound`` otherwise;
* ``identical`` or ``changed`` for the paper error, which repeats
  exactly for a seed: any change to it fails the comparison.

Exits 1 when any metric regressed or changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))

#: Each workload metric of the ``perfbench-table`` line is judged with
#: the bound of the end-to-end metric that plays its part; times and
#: rates, which no end-to-end metric bounds (their run-to-run spread is
#: too wide), with ``TIMING_BOUND``.  The paper error has none: it
#: repeats exactly for a seed, so any change counts.
TIMING_BOUND = 0.25
ROLE = {
    "setup_s": "setup_s",
    "peak_rss_mb": "peak_rss_mb",
    "error_rate": "ok_rate",
    "paper_err": None,
    "wall_s": TIMING_BOUND,
    "rps": TIMING_BOUND,
    "hit_p50_ms": TIMING_BOUND,
    "hit_p99_ms": TIMING_BOUND,
    "miss_p50_ms": TIMING_BOUND,
    "miss_p95_ms": TIMING_BOUND,
}
HIGHER_IS_BETTER = {"rps", "ok_rate"}
#: Rates whose bound is an absolute difference, not a share.
ABSOLUTE = {"error_rate", "ok_rate"}


def _tree_digest(root: str) -> str:
    digest = hashlib.sha256()
    for base in ("BENCHMARK.json", "perfbench"):
        path = os.path.join(root, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d
        )
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _run_one(root: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    table = next(
        (json.loads(l.split(" ", 1)[1]) for l in lines
         if l.startswith("perfbench-table ")), {"metrics": {}},
    )
    final = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {
        "exit": proc.returncode, "final": final, "table": table["metrics"],
    }


def run_pairs(args, spec) -> list[dict]:
    if _tree_digest(args.parent) != _tree_digest(args.change):
        raise SystemExit("parent and change carry different benchmark files")
    records = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        for workload in args.workload:
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            for side, root in order:
                record = _run_one(root, workload, seed, spec["run_seconds"])
                record.update(side=side, workload=workload, seed=seed)
                records.append(record)
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(record) + "\n")
                print(f"pair {i} {workload} {side}: exit {record['exit']}",
                      file=sys.stderr)
    return records


def _values(record: dict) -> dict[str, float]:
    """Every metric of one run: the final line's and the table's."""
    out = {}
    if record["final"]:
        out.update({k: v["value"] for k, v in record["final"]["metrics"].items()})
    for name, entry in record["table"].items():
        if entry["value"] is not None:
            out[f"{name}*"] = entry["value"]
    return out


def verdict(parent: list[float], change: list[float], bound: float,
            higher: bool, absolute: bool, more_failures: bool) -> str:
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, p_med, q3 = stats.quartiles(parent)
    c_med = stats.quartiles(change)[1]
    scale = 1.0 if absolute else abs(p_med)
    spread = (q3 - q1) / scale if scale else 0.0
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not every_better:
        return "unresolved"
    if (wins >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1
            and not more_failures):
        return "gain"
    if scale and sign * (c_med - p_med) / scale < -bound:
        return "regression"
    return "within bound"


def analyse(records: list[dict], spec: dict) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    for workload in dict.fromkeys(r["workload"] for r in records):
        sides = {"parent": {}, "change": {}}
        failed = {"parent": 0, "change": 0}
        for record in records:
            if record["workload"] != workload:
                continue
            sides[record["side"]][record["seed"]] = _values(record)
            if record["final"]:
                failed[record["side"]] += record["final"]["failed"]
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        print(f"\n{workload}: {len(seeds)} pairs; failed operations "
              f"parent {failed['parent']}, change {failed['change']}")
        print(f"  {'metric':16s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'wins':>6s}  verdict")
        names = sorted({k for s in seeds for k in sides["parent"][s]})
        for name in names:
            base = name.rstrip("*")
            if name.endswith("*"):
                if base not in ROLE:
                    continue
                role = ROLE[base]
                bound = bounds[role]["bound"] if isinstance(role, str) else role
                higher = base in HIGHER_IS_BETTER
            elif base in bounds:
                bound = bounds[base]["bound"]
                higher = bounds[base]["better"] == "higher"
            else:
                continue
            both = [
                s for s in seeds
                if name in sides["parent"][s] and name in sides["change"][s]
            ]
            p = [sides["parent"][s][name] for s in both]
            c = [sides["change"][s][name] for s in both]
            if not p:
                continue
            if name.endswith("*") and ROLE[base] is None:
                result = "identical" if p == c else "changed"
            else:
                result = verdict(
                    p, c, bound, higher, base in ABSOLUTE,
                    failed["change"] > failed["parent"],
                )
            regressions += result in ("regression", "changed")
            sign = 1.0 if higher else -1.0
            wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            pq, cq = stats.quartiles(p), stats.quartiles(c)
            print(f"  {name:16s} {pq[1]:12.4f} [{pq[0]:.4f}, {pq[2]:.4f}] "
                  f"{cq[1]:12.4f} [{cq[0]:.4f}, {cq[2]:.4f}] "
                  f"{wins:3d}/{len(p):<2d}  {result}")
    print("\n(* = the workload's own metric, judged with the bound of its "
          "end-to-end role)")
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--out", default="perfbench-compare.jsonl")
    parser.add_argument("--results")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.results:
        with open(args.results) as handle:
            records = [json.loads(line) for line in handle]
    else:
        if not (args.parent and args.change):
            parser.error("--parent and --change (or --results) are required")
        args.workload = args.workload or [w["name"] for w in spec["workloads"]]
        records = run_pairs(args, spec)
    return analyse(records, spec)


if __name__ == "__main__":
    sys.exit(main())
