"""The ``serve-hit`` and ``serve-mixed`` workloads.

Both run a single-worker ``repro serve`` over a result store that
set-up warmed with the whole evaluate grid (every workload x both
configurations x every mechanism, at ``GRID_INSTRUCTIONS``).

* ``serve-hit``: ``CLIENTS`` keep-alive clients in a closed loop over a
  seeded Zipf stream of grid cells.  Every request is a store read, so
  this is HTTP, store and serialization work only.
* ``serve-mixed``: an open loop at ``MIXED_RATE`` requests per second
  over at most ``CLIENTS`` keep-alive connections.  ``MISS_SHARE`` of
  the arrivals ask for cells that are not in the store; each uses its
  own trace seed, whose trace set-up wrote to the disk trace cache, so
  a miss loads a trace, encodes it, primes its masks, runs the kernel
  and writes the result while hits keep arriving.

``cpu_ms`` is the server's CPU time per request, measured so that it
does not follow the shared host:

* ``serve-hit`` runs its load in slices, each followed by a probe of
  the control server (``control.py``), and scales each slice's CPU time
  by the probe after it; its work is the control's kind of work.
* ``serve-mixed`` counts user time only.  Its kernel time, mostly the
  misses' file reads and fsynced store writes on a shared disk, spread
  28% over ten runs of the same code (quartile distance over median),
  its user time 9%; the kernel time is printed as ``cpu_sys_ms``.

Correctness: every distinct hit cell is requested once before the
timed window and compared with an in-process ``repro.core.study``
evaluation; every miss is compared the same way after the window.
Inside the window each answer must equal the verified payload.  A
wrong payload, a non-200 answer, a 429 or a timeout is a failed
request.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np

import client
import control
import layers
import spans
import stats

GRID_INSTRUCTIONS = 20_000
GRID_SEED = 0
CONFIGS = ("economy", "high-performance")
#: Two cores: the load comes from one process over two connections.
CLIENTS = 2
ZIPF_THETA = 0.99
#: Well below the knee: at 250 req/s a slow spell of the shared host
#: pushed the single server thread into a backlog.
MIXED_RATE = 100.0
MISS_SHARE = 0.10
WARMUP_S = 1.0
#: ``serve-hit``: seconds of load between two probes of the control
#: server (each ``control.PROBE_S`` long).
SLICE_S = 1.0
#: Set-up is repeated and its median reported.
SETUP_REPEATS = 3
STOP_TIMEOUT_S = 30.0


class Server:
    """One ``repro serve`` process (optionally under the tracing launcher)."""

    def __init__(self, ctx, cache_dir: str, spans_dir: str | None = None):
        self.ctx = ctx
        self.port = control.free_port()
        args = [
            "--cache-dir", cache_dir, "--instructions", str(GRID_INSTRUCTIONS),
            "serve", "--port", str(self.port),
        ]
        if spans_dir is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, ctx.launcher, spans_dir, "--", *args]
        self.log = open(os.path.join(ctx.work, f"server-{self.port}.log"), "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ctx.root, env=ctx.env, stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.peak_rss_mb = None
        self.exit_code = None
        self._wait_healthy()

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        url = f"http://127.0.0.1:{self.port}/healthz"
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                with urllib.request.urlopen(url, timeout=2) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, ConnectionError, OSError):
                pass
            time.sleep(0.02)
        raise RuntimeError("server did not become healthy")

    def metrics(self) -> dict:
        return asyncio.run(
            client.get_json("127.0.0.1", self.port, "/metrics?format=json")
        )

    def cpu_s(self) -> tuple[float, float]:
        """User and system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        tick = os.sysconf("SC_CLK_TCK")
        return int(fields[11]) / tick, int(fields[12]) / tick

    def stop(self) -> bool:
        """SIGTERM and reap; True when the server drained and exited 0."""
        if self.exit_code is not None:
            return self.exit_code == 0
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        pid, status, usage = 0, 0, None
        while time.perf_counter() < deadline:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            time.sleep(0.02)
        if not pid:
            self.proc.kill()
            pid, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.log.close()
        return self.exit_code == 0


def _grid() -> list[tuple[str, str, str, str]]:
    from repro.core.study import MECHANISMS
    from repro.workloads.registry import list_workloads

    return [
        (name, os_name, config, mechanism)
        for name, os_name in list_workloads()
        for config in CONFIGS
        for mechanism in MECHANISMS
    ]


def _body(cell, seed: int) -> bytes:
    name, os_name, config, mechanism = cell
    return json.dumps({
        "workload": name, "os": os_name, "config": config,
        "mechanism": mechanism, "instructions": GRID_INSTRUCTIONS,
        "seed": seed, "wait": True,
    }).encode()


def _expected(cell, seed: int) -> dict:
    """The reference answer, evaluated in this process."""
    from repro.core.config import MemorySystemConfig
    from repro.core.study import evaluate

    name, os_name, config_name, mechanism = cell
    config = (
        MemorySystemConfig.economy() if config_name == "economy"
        else MemorySystemConfig.high_performance()
    )
    result = evaluate(
        name, os_name, config, mechanism,
        n_instructions=GRID_INSTRUCTIONS, seed=seed,
    )
    return json.loads(json.dumps({
        "mpi": result.l1.mpi, "l2_mpi": result.l2_mpi,
        "cpi_l1": result.cpi_l1, "cpi_l2": result.cpi_l2,
        "cpi_instr": result.cpi_instr,
    }))


def _served_metrics(status: int, payload: bytes, cell) -> dict | None:
    """The metrics block of a 200 answer for ``cell``, else ``None``."""
    if status != 200:
        return None
    try:
        result = json.loads(payload)["result"]
    except (ValueError, KeyError, TypeError):
        return None
    name, os_name, config, mechanism = cell
    if (result.get("name"), result.get("os"), result.get("config"),
            result.get("mechanism")) != (name, os_name, config, mechanism):
        return None
    return result.get("metrics")


def _zipf_stream(n_cells: int, length: int, rng) -> np.ndarray:
    """``length`` cell indices, Zipf(``ZIPF_THETA``) over a seeded ranking."""
    ranking = rng.permutation(n_cells)
    weights = 1.0 / np.arange(1, n_cells + 1) ** ZIPF_THETA
    ranks = rng.choice(n_cells, size=length, p=weights / weights.sum())
    return ranking[ranks]


class Plan:
    """The requests of one timed window: a cell and trace seed each."""

    def __init__(self, grid, seed: int, kind: str, seconds: float, phase: int):
        rng = np.random.default_rng([seed, phase])
        if kind == "serve-hit":
            # More than the fastest closed loop sends; recycled if outrun.
            length = 4000 * int(WARMUP_S + seconds)
        else:
            length = int(MIXED_RATE * (WARMUP_S + seconds))
        self.cells = [grid[i] for i in _zipf_stream(len(grid), length, rng)]
        self.seeds = [GRID_SEED] * length
        self.misses: set[int] = set()
        if kind == "serve-mixed":
            # The misses are the same cells for every seed -- the k-th
            # cycles through workloads, configurations and mechanisms --
            # so the compute a run asks for does not depend on the seed;
            # the seed orders them and places them in the stream.
            pairs = sorted({cell[:2] for cell in grid})
            mechanisms = sorted({cell[3] for cell in grid})
            # One miss in every block of 1 / MISS_SHARE arrivals, at a
            # seeded offset: the share is exact and misses never bunch
            # up by chance.
            block = int(round(1 / MISS_SHARE))
            n_miss = length // block
            positions = np.arange(n_miss) * block + rng.integers(
                block, size=n_miss
            )
            for k, position in zip(rng.permutation(n_miss), positions):
                name, os_name = pairs[k % len(pairs)]
                self.cells[position] = (
                    name, os_name, CONFIGS[k % len(CONFIGS)],
                    mechanisms[k % len(mechanisms)],
                )
                # A trace seed of its own: never in the server's memory.
                self.seeds[position] = 1 + phase * 100_000 + int(k)
                self.misses.add(int(position))
        self.bodies = [_body(c, s) for c, s in zip(self.cells, self.seeds)]

    def key(self, index: int) -> tuple:
        index %= len(self.cells)
        return self.cells[index], self.seeds[index]

    def hit_keys(self) -> list[tuple]:
        return sorted({
            self.key(i) for i in range(len(self.cells)) if i not in self.misses
        })

    def miss_keys(self) -> list[tuple]:
        return [self.key(i) for i in sorted(self.misses)]


@contextlib.contextmanager
def _trace_cache(cache_dir: str | None):
    """Point this process's trace registry at ``cache_dir`` (or none)."""
    from repro.runner.cache import TraceDiskCache
    from repro.workloads import registry

    registry.set_trace_cache_backend(
        TraceDiskCache(cache_dir) if cache_dir else None
    )
    try:
        yield registry
    finally:
        registry.set_trace_cache_backend(None)


def _write_miss_traces(plan: Plan, cache_dir: str) -> None:
    with _trace_cache(cache_dir) as registry:
        for (name, os_name, _, _), seed in plan.miss_keys():
            registry.get_trace(name, os_name, GRID_INSTRUCTIONS, seed)


def _expect(keys, expected: dict, cache_dir: str | None = None) -> None:
    """Evaluate every not-yet-known key in this process."""
    with _trace_cache(cache_dir):
        for key in keys:
            if key not in expected:
                expected[key] = _expected(*key)


class Window:
    """One timed window: the samples after warm-up, and their failures."""

    def __init__(self, plan: Plan, load: client.LoadResult, samples,
                 measured_s: float, cpu_ms: float, user_ms: float,
                 sys_ms: float):
        self.plan = plan
        #: Every request the server answered, warm-up included.
        self.load = load
        #: The requests measured, and the seconds they were sent over.
        self.samples = samples
        self.measured_s = measured_s
        #: Server CPU milliseconds per request: as reported (see the
        #: module's doc), and the user and system time as measured.
        self.cpu_ms = cpu_ms
        self.user_ms = user_ms
        self.sys_ms = sys_ms
        self.failed = 0
        self.wrong = 0

    def verify(self, expected: dict) -> None:
        """Count failed samples: non-200, unparsable or wrong answers."""
        for sample in self.samples:
            cell, seed = self.plan.key(sample.index)
            got = _served_metrics(sample.status, sample.body, cell)
            if got is None or got != expected[(cell, seed)]:
                self.failed += 1
                if sample.status == 200:
                    self.wrong += 1
        for sample in self.load.samples:
            sample.body = b""

    def split(self) -> tuple[list[float], list[float]]:
        """Latencies (ms) of the hit and the miss requests."""
        hits, misses = [], []
        for sample in self.samples:
            is_miss = sample.index % len(self.plan.cells) in self.plan.misses
            (misses if is_miss else hits).append(sample.latency_ms)
        return hits, misses


def _run_window(server: Server, plan: Plan, kind: str, seconds: float,
                ctl: control.Control | None = None) -> Window:
    """The load of one timed window; probed against ``ctl`` if given.

    Without a control server the load runs unbroken, and the window's
    CPU times per request are the server's CPU seconds over the whole
    load, warm-up included, divided by the requests it answered;
    ``cpu_ms`` is the user time.
    """
    # The reference evaluations left this process full of objects; a
    # full collection in the middle of the window would stall the load
    # generator, so collect now and not again until the window ends.
    gc.collect()
    gc.disable()
    try:
        if ctl is not None:
            return asyncio.run(_probed_window(server, ctl, plan, seconds))
        before = server.cpu_s()
        if kind == "serve-hit":
            load = asyncio.run(client.closed_loop(
                "127.0.0.1", server.port, plan.bodies, CLIENTS,
                WARMUP_S + seconds,
            ))
        else:
            load = asyncio.run(client.open_loop(
                "127.0.0.1", server.port, plan.bodies, MIXED_RATE, CLIENTS
            ))
        after = server.cpu_s()
    finally:
        gc.enable()
    user_ms, sys_ms = (
        1000.0 * (end - start) / len(load.samples)
        for start, end in zip(before, after)
    )
    edge = load.start + WARMUP_S
    samples = [s for s in load.samples if s.due >= edge]
    return Window(
        plan, load, samples, max(s.done for s in samples) - edge,
        user_ms, user_ms, sys_ms,
    )


async def _probed_window(server: Server, ctl: control.Control, plan: Plan,
                         seconds: float) -> Window:
    """``serve-hit``'s window: a warm-up, then ``SLICE_S`` slices of the
    closed loop, each followed by a probe of the control server, for
    ``seconds`` in all.

    ``cpu_ms`` is the median over slices of the slice's CPU time per
    request, scaled by the probe after it.
    """
    await ctl.probe(WARMUP_S)
    load = await client.closed_loop(
        "127.0.0.1", server.port, plan.bodies, CLIENTS, WARMUP_S
    )
    samples, measured, scaled, spent = [], 0.0, [], (0.0, 0.0)
    for _ in range(math.ceil(seconds / (SLICE_S + control.PROBE_S))):
        before = server.cpu_s()
        part = await client.closed_loop(
            "127.0.0.1", server.port, plan.bodies, CLIENTS, SLICE_S,
            len(load.samples),
        )
        used = [end - start for start, end in zip(before, server.cpu_s())]
        spent = tuple(total + more for total, more in zip(spent, used))
        scaled.append(control.scale(
            1000.0 * sum(used) / len(part.samples), await ctl.probe()
        ))
        load.samples += part.samples
        load.cpu_s += part.cpu_s
        samples += part.samples
        measured += part.wall_s
    load.wall_s = time.perf_counter() - load.start
    user_ms, sys_ms = (1000.0 * total / len(samples) for total in spent)
    return Window(
        plan, load, samples, measured, statistics.median(scaled),
        user_ms, sys_ms,
    )


def _check_hits(server: Server, plan: Plan, expected: dict) -> int:
    """Ask for every distinct hit cell once; return the mismatch count."""
    keys = plan.hit_keys()
    _expect(keys, expected)

    async def ask() -> list[tuple[int, bytes]]:
        conn = client.Connection("127.0.0.1", server.port)
        try:
            return [
                await conn.request("POST", "/v1/evaluate", _body(cell, seed))
                for cell, seed in keys
            ]
        finally:
            await conn.close()

    return sum(
        _served_metrics(status, payload, key[0]) != expected[key]
        for key, (status, payload) in zip(keys, asyncio.run(ask()))
    )


def _histogram_delta(before: dict, after: dict, name: str, labels=None):
    """(Δsum, Δcount) of one histogram series between two scrapes."""
    def pick(snapshot):
        for series in snapshot.get("histograms", {}).get(name, []):
            if labels is None or series["labels"] == labels:
                return series["sum"], series["count"]
        return 0.0, 0
    (s0, c0), (s1, c1) = pick(before), pick(after)
    return s1 - s0, c1 - c0


def _counter_delta(before: dict, after: dict, name: str, labels=None) -> float:
    def pick(snapshot):
        return sum(
            series["value"]
            for series in snapshot.get("counters", {}).get(name, [])
            if labels is None or all(
                series["labels"].get(k) == v for k, v in labels.items()
            )
        )
    return pick(after) - pick(before)


def _mean_ms(before, after, name, labels=None) -> float:
    total, count = _histogram_delta(before, after, name, labels)
    return 1000.0 * total / count if count else 0.0


def _setup(ctx) -> tuple[Server, str, list[float]]:
    """Warm a fresh store and start a server, ``SETUP_REPEATS`` times.

    Each repeat starts from empty trace and result caches, so each
    pays the whole set-up; the last one's server is kept.
    """
    times, server, cache_dir = [], None, None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir = os.path.join(ctx.work, f"cache-{repeat}")
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "--cache-dir", cache_dir,
             "--instructions", str(GRID_INSTRUCTIONS), "--seed",
             str(GRID_SEED), "--jobs", "2", "warm"],
            cwd=ctx.root, env=ctx.env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        server = Server(ctx, cache_dir)
        times.append(time.perf_counter() - start)
    return server, cache_dir, times


def run(ctx, kind: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of ``kind``; returns the fields ``run.py`` prints."""
    grid = _grid()
    expected: dict = {}
    server, cache_dir, setup_times = _setup(ctx)
    servers = [server]
    ctl = None
    try:
        plan = Plan(grid, seed, kind, seconds, phase=0)
        _write_miss_traces(plan, cache_dir)
        mismatches = _check_hits(server, plan, expected)
        if kind == "serve-hit":
            ctl = control.Control(ctx)
        windows = [_run_window(server, plan, kind, seconds, ctl)]
        server.stop()
        if trace:
            # The same load against a traced server, with misses of its
            # own (the first window's misses are in the store now).
            traced_plan = Plan(grid, seed, kind, seconds, phase=1)
            _write_miss_traces(traced_plan, cache_dir)
            _expect(traced_plan.hit_keys(), expected)
            spans_dir = os.path.join(ctx.work, "spans")
            traced_server = Server(ctx, cache_dir, spans_dir)
            servers.append(traced_server)
            before = traced_server.metrics()
            windows.append(_run_window(traced_server, traced_plan, kind, seconds))
            after = traced_server.metrics()
            traced_server.stop()
        for window in windows:
            _expect(window.plan.miss_keys(), expected, cache_dir)
            window.verify(expected)
    finally:
        for each in servers:
            each.stop()
        if ctl is not None:
            ctl.stop()

    window = windows[0]
    result = {
        "attempted": sum(len(w.samples) for w in windows),
        "failed": sum(w.failed for w in windows),
        "correct": (
            mismatches + sum(w.wrong for w in windows) == 0
            and all(each.exit_code == 0 for each in servers)
        ),
        "table": _table(kind, window, setup_times, server.peak_rss_mb),
    }
    if trace:
        result["metrics"] = _per_layer(windows, before, after, spans_dir)
    else:
        result["metrics"] = _end_to_end(window, setup_times, server.peak_rss_mb)
    return result


def _end_to_end(window: Window, setup_times, peak_rss_mb) -> dict:
    n = len(window.samples)
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": (n - window.failed) / n,
        "cpu_ms": window.cpu_ms,
    }


def _table(kind, window: Window, setup_times, peak_rss_mb) -> list[tuple]:
    """The workload's own metrics: (name, unit, value, samples behind it)."""
    hits, misses = window.split()
    n = len(window.samples)
    rows = [
        ("setup_s", "s", statistics.median(setup_times), setup_times),
        ("peak_rss_mb", "MB", peak_rss_mb, 1),
        ("error_rate", "ratio", window.failed / n, n),
        ("cpu_user_ms", "ms", window.user_ms, n),
        ("cpu_sys_ms", "ms", window.sys_ms, n),
    ]
    if kind == "serve-hit":
        rows.append(("rps", "1/s", n / window.measured_s, n))
    rows += [
        ("hit_p50_ms", "ms", stats.percentile(hits, 50), hits),
        ("hit_p99_ms", "ms", stats.percentile(hits, 99), hits),
    ]
    if kind == "serve-mixed":
        rows += [
            ("miss_p50_ms", "ms", stats.percentile(misses, 50), misses),
            ("miss_p95_ms", "ms", stats.percentile(misses, 95), misses),
        ]
    return rows


def _per_layer(windows: list[Window], before, after, spans_dir) -> dict:
    untraced, traced = windows
    found, _ = spans.load(spans_dir)
    spans.self_times(found)
    # Only what the server did during the traced load.
    lo = int(traced.load.start * 1e9)
    hi = int((traced.load.start + traced.load.wall_s) * 1e9)
    by_name: dict[str, list[dict]] = {}
    for span in found:
        if lo <= span["start"] <= hi:
            by_name.setdefault(span["name"], []).append(span)

    def self_s(name):
        return sum(s["self"] for s in by_name.get(name, ())) / 1e9

    def mean_ms(name):
        group = by_name.get(name, ())
        if not group:
            return 0.0
        return sum(s["end"] - s["start"] for s in group) / len(group) / 1e6

    requests = len(by_name.get("service.dispatch", ())) or 1
    handle_ms = _mean_ms(before, after, "request_seconds")
    hits = _counter_delta(before, after, "result_store_hits_total")
    misses = _counter_delta(before, after, "result_store_misses_total")
    reference = _counter_delta(
        before, after, "engine_dispatch_total", {"engine": "reference"}
    )
    dispatched = _counter_delta(before, after, "engine_dispatch_total")
    batch_sum, batch_count = _histogram_delta(before, after, "eval_batch_size")
    late = [1000.0 * x for x in traced.load.lateness]
    values = {name: 0.0 for name in layers.PER_LAYER}
    values.update({
        "workloads.synthesize_s": self_s("workloads.synthesize"),
        "trace.line_runs_s": self_s("trace.line_runs"),
        "caches.miss_masks_s": self_s("caches.miss_masks"),
        "fetch.kernel_s": self_s("fetch.kernel"),
        "core.l2_mpi_s": self_s("core.l2_mpi"),
        "fetch.reference_share": reference / dispatched if dispatched else 0.0,
        "service.handle_ms": handle_ms,
        "service.parse_ms": 1000.0 * self_s("service.parse") / requests,
        "service.store_get_ms": 1000.0 * self_s("service.store_get") / requests,
        "service.serialize_ms": 1000.0 * self_s("service.serialize") / requests,
        "service.store_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "loadgen.client_ms": statistics.fmean(
            (s.done - s.sent) * 1000.0 for s in traced.samples
        ) - handle_ms,
        "loadgen.cpu_util": traced.load.cpu_s / traced.load.wall_s,
        "service.queue_wait_ms": _mean_ms(before, after, "queue_wait_seconds"),
        "service.job_ms": _mean_ms(
            before, after, "job_seconds", {"kind": "evaluate"}
        ),
        "service.batch_size": batch_sum / batch_count if batch_count else 0.0,
        "plan.execute_ms": mean_ms("plan.execute"),
        "runner.trace_load_ms": mean_ms("runner.trace_load"),
        "service.store_put_ms": mean_ms("service.store_put"),
        "service.shed": _counter_delta(
            before, after, "admission_total", {"decision": "shed"}
        ),
        "loadgen.late_p99_ms": (
            (stats.percentile(late, 99) or max(late)) if late else 0.0
        ),
        "unaccounted_s": spans.root_self_s(
            [s for group in by_name.values() for s in group], layers.ROOT_SPANS
        ),
        "trace_overhead": (
            statistics.fmean(s.latency_ms for s in traced.samples)
            / statistics.fmean(s.latency_ms for s in untraced.samples)
        ),
    })
    return values
