"""Multi-process serving tests: supervisor, fleet identity, drain.

The acceptance bar for ``repro serve --workers N``:

* every worker identifies itself (banner, ``/healthz``, the
  ``X-Repro-Worker`` response header) and the fleet aggregates its
  siblings' health and metrics behind the shared socket;
* a SIGKILLed worker is respawned while the listener keeps accepting;
* a worker that crashes at boot repeatedly trips the crash-loop limit
  and the supervisor exits non-zero with a clear message instead of
  flapping forever;
* SIGTERM with live keep-alive clients and in-flight jobs drains every
  worker within the drain budget — exit 0, no hang, no orphans.

The subprocess tests drive the real ``python -m repro … serve`` CLI
over real sockets; the unit tests cover the registry, the socket
strategy resolution, and the multi-worker Prometheus rendering.
"""

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.service.metrics import ServiceMetrics, render_prometheus_multi
from repro.service.supervisor import (
    SELFTEST_ENV,
    Supervisor,
    WorkerIdentity,
    WorkerRegistry,
    resolve_socket_strategy,
    reuseport_available,
    run_supervisor,
)

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="pre-fork serving is POSIX-only"
)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

_BANNER = re.compile(
    r"listening on http://(?P<host>[\d.]+):(?P<port>\d+)"
)


class _ServeProcess:
    """One real ``repro serve`` subprocess with captured output."""

    def __init__(self, tmp_path, *extra_args, env_extra=None, workers=2):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.update(env_extra or {})
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "--cache-dir", str(tmp_path / "cache"),
                "serve", "--port", "0",
                "--workers", str(workers),
                *extra_args,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: list[str] = []
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.port: int | None = None

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def wait_for(self, pattern: str, timeout: float = 30.0) -> str:
        """First captured line matching ``pattern`` (regex search)."""
        deadline = time.time() + timeout
        compiled = re.compile(pattern)
        seen = 0
        while time.time() < deadline:
            while seen < len(self.lines):
                line = self.lines[seen]
                seen += 1
                if compiled.search(line):
                    return line
            if self.proc.poll() is not None:
                # Let the pump thread flush the tail, then scan once.
                self._reader.join(timeout=5)
                for line in self.lines[seen:]:
                    if compiled.search(line):
                        return line
                break
            time.sleep(0.02)
        raise AssertionError(
            f"no line matching {pattern!r}; output so far:\n"
            + "".join(self.lines)
        )

    def wait_listening(self, timeout: float = 30.0) -> int:
        line = self.wait_for(_BANNER.pattern, timeout)
        self.port = int(_BANNER.search(line).group("port"))
        return self.port

    def healthz(self, timeout: float = 5.0) -> dict:
        url = f"http://127.0.0.1:{self.port}/healthz"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read())

    def wait_healthy_fleet(self, n: int, timeout: float = 30.0) -> dict:
        """Poll ``/healthz`` until ``n`` distinct live workers answer."""
        deadline = time.time() + timeout
        last = None
        while time.time() < deadline:
            try:
                last = self.healthz()
            except (OSError, ValueError):
                time.sleep(0.1)
                continue
            workers = last.get("workers", [])
            alive = {w["worker"] for w in workers if w.get("alive")}
            if len(alive) >= n:
                return last
            time.sleep(0.1)
        raise AssertionError(f"fleet never reached {n} workers: {last}")

    def terminate_and_wait(self, timeout: float = 60.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def cleanup(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


@pytest.fixture
def serve_factory(tmp_path):
    launched: list[_ServeProcess] = []

    def launch(*extra_args, **kwargs) -> _ServeProcess:
        process = _ServeProcess(tmp_path, *extra_args, **kwargs)
        launched.append(process)
        return process

    yield launch
    for process in launched:
        process.cleanup()


def _worker_pids(payload: dict) -> dict[int, int]:
    return {
        w["worker"]: w["pid"]
        for w in payload.get("workers", [])
        if w.get("alive")
    }


class TestFleetIdentity:
    def test_healthz_aggregates_both_workers(self, serve_factory):
        server = serve_factory()
        server.wait_listening()
        payload = server.wait_healthy_fleet(2)
        # The answering worker identifies itself…
        identity = payload["worker"]
        assert identity["count"] == 2
        assert identity["index"] in (0, 1)
        assert identity["pid"] > 0
        # …and summarizes the whole fleet, each entry addressable.
        pids = _worker_pids(payload)
        assert set(pids) == {0, 1}
        assert len(set(pids.values())) == 2
        for entry in payload["workers"]:
            assert entry["admission"]["max_inflight"] >= 1
            assert entry["control_port"] > 0
        assert server.terminate_and_wait() == 0

    def test_worker_header_and_merged_metrics(self, serve_factory):
        server = serve_factory()
        server.wait_listening()
        server.wait_healthy_fleet(2)
        url = f"http://127.0.0.1:{server.port}/healthz"
        with urllib.request.urlopen(url, timeout=5) as response:
            assert response.headers["X-Repro-Worker"] in ("0", "1")
        metrics_url = f"http://127.0.0.1:{server.port}/metrics"
        deadline = time.time() + 20
        text = ""
        while time.time() < deadline:
            with urllib.request.urlopen(metrics_url, timeout=5) as response:
                text = response.read().decode()
            if 'worker="0"' in text and 'worker="1"' in text:
                break
            time.sleep(0.2)
        assert 'worker="0"' in text and 'worker="1"' in text
        # One HELP/TYPE header pair per family, not per worker.
        assert text.count("# TYPE repro_requests_total ") == 1
        assert server.terminate_and_wait() == 0


class TestSupervision:
    def test_killed_worker_respawned_listener_keeps_accepting(
        self, serve_factory
    ):
        server = serve_factory()
        server.wait_listening()
        payload = server.wait_healthy_fleet(2)
        before = _worker_pids(payload)
        victim = before[0]
        os.kill(victim, signal.SIGKILL)
        server.wait_for(rf"pid {victim}\) exited on signal SIGKILL")
        # The listener answers throughout, and the slot comes back with
        # a fresh pid.
        deadline = time.time() + 30
        respawned = None
        while time.time() < deadline:
            after = _worker_pids(server.healthz())
            if after.get(0) not in (None, victim) and len(after) == 2:
                respawned = after
                break
            time.sleep(0.1)
        assert respawned is not None, "worker 0 never respawned"
        assert respawned[1] == before[1]
        assert server.terminate_and_wait() == 0

    def test_crash_loop_trips_limit_and_exits_nonzero(self, serve_factory):
        server = serve_factory(
            "--max-worker-restarts", "3",
            env_extra={SELFTEST_ENV: "crash"},
        )
        server.wait_listening()
        assert server.proc.wait(timeout=60) == 1
        server.wait_for(r"giving up — workers crashed 3 consecutive times")

    def test_supervisor_rejects_invalid_configs(self):
        with pytest.raises(ValueError, match="at least 2 workers"):
            Supervisor(host="127.0.0.1", port=0, workers=1, store_root=None)
        assert run_supervisor(
            host="127.0.0.1", port=0, workers=1, store_root=None
        ) == 2


class TestCoordinatedDrain:
    def test_sigterm_drains_inflight_and_keepalive(self, serve_factory):
        server = serve_factory("--drain-timeout", "10")
        port = server.wait_listening()
        server.wait_healthy_fleet(2)

        async def occupy():
            # An idle keep-alive connection: parked in read_request,
            # only wakes on EOF — exactly the shape that deadlocked
            # shutdown before the PR 7 connection tracking.
            idle_reader, idle_writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            # And one in-flight wait=true evaluate: the response
            # arrives during the drain.
            body = json.dumps(
                {"workload": "gcc", "instructions": 20_000, "wait": True}
            ).encode()
            busy_reader, busy_writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            busy_writer.write(
                (
                    "POST /v1/evaluate HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode() + body
            )
            await busy_writer.drain()
            await asyncio.sleep(0.3)  # let the job enter the scheduler
            server.proc.send_signal(signal.SIGTERM)
            raw = await asyncio.wait_for(busy_reader.read(-1), 60)
            for writer in (idle_writer, busy_writer):
                writer.close()
            return raw

        raw = asyncio.run(occupy())
        # The in-flight request still got its terminal response —
        # finished or reported cancelled, never dropped.
        status = int(raw.split(b" ", 2)[1])
        assert status in (200, 202)
        assert server.proc.wait(timeout=60) == 0
        server.wait_for(r"supervisor drained 2 worker\(s\) \(0 unclean\)")
        # No orphans: every worker pid the fleet reported is gone.
        time.sleep(0.2)
        for line in server.lines:
            match = re.search(r"worker \d+/\d+ \(pid (\d+)\)", line)
            if match:
                with pytest.raises(ProcessLookupError):
                    os.kill(int(match.group(1)), 0)


class TestSocketStrategy:
    def test_auto_resolves_to_platform_best(self):
        resolved = resolve_socket_strategy("auto")
        if reuseport_available():
            assert resolved == "reuseport"
        else:
            assert resolved == "inherit"

    def test_inherit_always_available(self):
        assert resolve_socket_strategy("inherit") == "inherit"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown socket strategy"):
            resolve_socket_strategy("round-robin")

    @pytest.mark.skipif(
        not reuseport_available(), reason="needs SO_REUSEPORT"
    )
    def test_inherit_strategy_serves(self, serve_factory):
        # The portable fallback must work even where reuseport exists.
        server = serve_factory("--socket-strategy", "inherit")
        server.wait_listening()
        server.wait_for(r"strategy=inherit")
        payload = server.wait_healthy_fleet(2)
        assert set(_worker_pids(payload)) == {0, 1}
        assert server.terminate_and_wait() == 0


class TestWorkerRegistry:
    def test_announce_peers_retract(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path / "fleet"))
        me = WorkerIdentity(index=0, count=2, pid=os.getpid())
        registry.announce(me, control_port=1234)
        sibling = WorkerIdentity(index=1, count=2, pid=os.getpid())
        registry.announce(sibling, control_port=5678)
        peers = registry.peers()
        assert [p["index"] for p in peers] == [0, 1]
        assert registry.peers(exclude_index=0)[0]["control_port"] == 5678
        registry.retract(1)
        assert [p["index"] for p in registry.peers()] == [0]

    def test_dead_pid_filtered(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path / "fleet"))
        # Reserve a pid that is certainly dead by the time we read.
        child = os.fork()
        if child == 0:
            os._exit(0)
        os.waitpid(child, 0)
        registry.announce(
            WorkerIdentity(index=0, count=1, pid=child), control_port=1
        )
        assert registry.peers() == []

    def test_torn_announcement_skipped(self, tmp_path):
        root = tmp_path / "fleet"
        registry = WorkerRegistry(str(root))
        registry.announce(
            WorkerIdentity(index=0, count=1, pid=os.getpid()), control_port=1
        )
        (root / "worker-9.json").write_text("{torn")
        assert [p["index"] for p in registry.peers()] == [0]

    def test_missing_directory_is_empty(self, tmp_path):
        assert WorkerRegistry(str(tmp_path / "nope")).peers() == []


class TestMultiWorkerRendering:
    def _snapshot(self, requests: int, depth: float) -> dict:
        metrics = ServiceMetrics()
        metrics.inc("requests_total", {"endpoint": "/healthz"}, requests)
        metrics.set_gauge("queue_depth", depth)
        metrics.observe("request_seconds", 0.002)
        return metrics.to_dict()

    def test_series_gain_worker_labels(self):
        text = render_prometheus_multi(
            {"0": self._snapshot(3, 1.0), "1": self._snapshot(5, 2.0)}
        )
        assert (
            'repro_requests_total{endpoint="/healthz",worker="0"} 3' in text
        )
        assert (
            'repro_requests_total{endpoint="/healthz",worker="1"} 5' in text
        )
        assert 'repro_queue_depth{worker="0"} 1' in text
        assert 'repro_queue_depth{worker="1"} 2' in text
        assert 'worker="0"' in text and 'worker="1"' in text

    def test_help_and_type_once_per_family(self):
        text = render_prometheus_multi(
            {"0": self._snapshot(1, 0.0), "1": self._snapshot(1, 0.0)}
        )
        assert text.count("# TYPE repro_requests_total counter") == 1
        assert text.count("# HELP repro_requests_total ") == 1
        assert text.count("# TYPE repro_request_seconds histogram") == 1

    def test_histograms_reemit_buckets_and_sums(self):
        text = render_prometheus_multi({"7": self._snapshot(1, 0.0)})
        assert (
            'repro_request_seconds_bucket{worker="7",le="+Inf"} 1' in text
        )
        assert 'repro_request_seconds_count{worker="7"} 1' in text
