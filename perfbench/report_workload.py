"""The ``report`` workload: the whole paper, as a user runs it.

Each report is ``repro report`` (all 15 paper experiments) in a fresh
process with ``--jobs 2`` and no disk trace cache, at
``INSTRUCTIONS`` instructions, so every run pays synthesis, encoding,
priming and the pool as the documented command does.  Reports repeat
until the run's seconds are used up (at least one).

Correctness: the rendered report must hash to the digest committed in
``digests.json`` for its seed, scale and generator version; a report
that exits non-zero or renders other bytes is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

import layers
import spans

INSTRUCTIONS = 200_000
JOBS = 2
#: Report seeds with a committed digest; the run seed maps onto them.
DIGEST_SEEDS = 10
#: Set-up (a fresh interpreter importing the program) is repeated.
SETUP_REPEATS = 3
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def report_seed(seed: int) -> int:
    return seed % DIGEST_SEEDS


def digest_key(seed: int) -> str:
    from repro.workloads.generator import GENERATOR_VERSION

    return f"{INSTRUCTIONS}:{report_seed(seed)}:v{GENERATOR_VERSION}"


def _report_args(seed: int) -> list[str]:
    return [
        "--instructions", str(INSTRUCTIONS), "--jobs", str(JOBS),
        "--no-disk-cache", "--seed", str(report_seed(seed)),
    ]


def _timed(ctx, cmd: list[str], out_path: str) -> tuple[float, object, int, bytes]:
    """Run ``cmd``; return (wall s, resource usage, exit code, stdout).

    The usage covers the process and the pool workers it waited for.
    """
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ctx.root, env=ctx.env, stdout=out,
            stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as handle:
        output = handle.read()
    return wall, usage, proc.returncode, output


def _setup_seconds(ctx) -> list[float]:
    """Start-up of a fresh ``repro`` process, which every report pays."""
    out = os.path.join(ctx.work, "list.txt")
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _, code, _ = _timed(
            ctx, [sys.executable, "-m", "repro", "list"], out
        )
        if code != 0:
            raise RuntimeError(f"repro list exited {code}")
        times.append(wall)
    return times


# -- paper error ----------------------------------------------------------

_NUMBER = r"(\d+\.\d+)"


def _blocks(text: str) -> dict[str, list[str]]:
    """Rendered experiments keyed by their title prefix ("Table 5")."""
    out = {}
    for block in text.split("\n\n"):
        lines = block.strip("\n").splitlines()
        if lines:
            out[lines[0].split(":")[0]] = lines
    return out


def _table_rows(lines: list[str]) -> list[list[str]]:
    """Cells of the body rows of a rendered ``|``-separated table."""
    body = lines[lines.index(next(l for l in lines if l.startswith("---"))) + 1:]
    return [[cell.strip() for cell in row.split("|")] for row in body]


def paper_pairs(text: str) -> list[tuple[float, float]]:
    """(reproduced, paper) CPIinstr pairs of Tables 5-8 as rendered."""
    blocks = _blocks(text)
    pairs = [
        (float(a), float(b)) for a, b in re.findall(
            _NUMBER + r"\s+\(paper " + _NUMBER + r"\)", "\n".join(blocks["Table 5"])
        )
    ]
    pairs += [
        (float(a), float(b)) for a, b in re.findall(
            _NUMBER + r" \(" + _NUMBER + r"\)", "\n".join(blocks["Table 6"][1:])
        )
    ]
    for row in _table_rows(blocks["Table 7"]) + _table_rows(blocks["Table 8"]):
        for got, paper in ((row[1], row[2]), (row[3], row[4])):
            if paper != "-":
                pairs.append((float(got), float(paper)))
    return pairs


def paper_err(text: str) -> float:
    """Mean relative error of the CPIinstr values against the paper."""
    pairs = paper_pairs(text)
    return statistics.fmean(abs(got - paper) / paper for got, paper in pairs)


# -- the workload ---------------------------------------------------------


def _digests() -> dict:
    with open(DIGESTS) as handle:
        return json.load(handle)


def record_digest(ctx, seed: int) -> str:
    """Run one report for ``seed`` and commit its digest."""
    out = os.path.join(ctx.work, "report.txt")
    _, _, code, output = _timed(
        ctx, [sys.executable, "-m", "repro", *_report_args(seed), "report"], out
    )
    if code != 0:
        raise RuntimeError(f"repro report exited {code}")
    table = _digests() if os.path.exists(DIGESTS) else {}
    table[digest_key(seed)] = hashlib.sha256(output).hexdigest()
    with open(DIGESTS, "w") as handle:
        json.dump(dict(sorted(table.items())), handle, indent=1)
        handle.write("\n")
    return table[digest_key(seed)]


def run(ctx, seed: int, seconds: float, trace: bool) -> dict:
    setup_times = _setup_seconds(ctx)
    want = _digests().get(digest_key(seed))
    if want is None:
        raise RuntimeError(f"no committed digest for {digest_key(seed)}")
    cmd = [sys.executable, "-m", "repro", *_report_args(seed), "report"]
    out = os.path.join(ctx.work, "report.txt")
    walls, rss, cpu, errors, failed = [], [], [], [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, usage, code, output = _timed(ctx, cmd, out)
        walls.append(wall)
        rss.append(usage.ru_maxrss / 1024.0)
        cpu.append(usage.ru_utime + usage.ru_stime)
        ok = code == 0 and hashlib.sha256(output).hexdigest() == want
        if ok:
            errors.append(paper_err(output.decode()))
        else:
            failed += 1
    result = {
        "attempted": len(walls),
        "failed": failed,
        "correct": failed == 0,
        "table": [
            ("setup_s", "s", statistics.median(setup_times), setup_times),
            ("peak_rss_mb", "MB", max(rss), len(rss)),
            ("error_rate", "ratio", failed / len(walls), len(walls)),
            ("wall_s", "s", statistics.median(walls), walls),
            ("paper_err", "ratio",
             statistics.median(errors) if errors else None, errors),
        ],
    }
    if trace:
        spans_dir = os.path.join(ctx.work, "spans")
        timing_path = os.path.join(spans_dir, "timing.json")
        os.makedirs(spans_dir, exist_ok=True)
        traced_cmd = [
            sys.executable, ctx.launcher, spans_dir, "--",
            *_report_args(seed), "--timing-out", timing_path, "report",
        ]
        traced_wall, _, code, output = _timed(ctx, traced_cmd, out)
        result["attempted"] += 1
        if code != 0 or hashlib.sha256(output).hexdigest() != want:
            result["failed"] += 1
            result["correct"] = False
        with open(timing_path) as handle:
            timing = json.load(handle)
        result["metrics"] = _per_layer(
            spans_dir, timing, traced_wall / statistics.median(walls)
        )
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": max(rss),
            "ok_rate": (len(walls) - failed) / len(walls),
            "cpu_ms": 1000.0 * statistics.median(cpu),
        }
    return result


def _per_layer(spans_dir: str, timing: dict, overhead: float) -> dict:
    found, counters = spans.load(spans_dir)
    spans.self_times(found)
    by_name: dict[str, list[dict]] = {}
    for span in found:
        by_name.setdefault(span["name"], []).append(span)

    def self_s(name):
        return sum(s["self"] for s in by_name.get(name, ())) / 1e9

    def wall_s(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ())) / 1e9

    cells = [s["end"] - s["start"] for s in by_name.get("runner.cell", ())]
    run_wall = wall_s("run")
    dispatch = timing.get("engine_dispatch", {})
    reference = sum(dispatch.get("reference", {}).values())
    dispatched = sum(sum(v.values()) for v in dispatch.values())
    values = {name: 0.0 for name in layers.PER_LAYER}
    values.update({
        "workloads.synthesize_s": self_s("workloads.synthesize"),
        "trace.line_runs_s": self_s("trace.line_runs"),
        "caches.miss_masks_s": self_s("caches.miss_masks"),
        "fetch.kernel_s": self_s("fetch.kernel"),
        "core.l2_mpi_s": self_s("core.l2_mpi"),
        "monitor.measure_s": self_s("monitor.measure"),
        "tapeworm.grid_s": self_s("tapeworm.grid"),
        "plan.compile_s": self_s("plan.compile"),
        "plan.prime_s": wall_s("plan.prime"),
        "plan.execute_ms": 1000.0 * wall_s("plan.execute") / max(
            1, len(by_name.get("plan.execute", ()))
        ),
        "experiments.render_s": self_s(layers.RENDER_SPAN),
        "plan.prime_share": wall_s("plan.prime") / run_wall,
        "runner.busy_ratio": (
            sum(cells) / 1e9 / (timing["jobs"] * wall_s("runner.pool"))
        ),
        "runner.critical_cell_s": max(cells) / 1e9,
        "caches.order_evictions": counters.get("order_evictions", 0.0),
        "fetch.reference_share": reference / dispatched if dispatched else 0.0,
        "unaccounted_s": spans.root_self_s(found, layers.ROOT_SPANS),
        "trace_overhead": overhead,
    })
    return values
