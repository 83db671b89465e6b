"""CPU time in units of a frozen control server's cost.

The shared host this benchmark runs on changes speed by up to 2x from
one minute to the next, and the CPU time of ``serve-hit``'s requests
moves with it.  So that workload measures the host's speed as it goes:
a *probe* is ``PROBE_S`` seconds of a closed loop on
``control_server.py`` (a server doing the same kind of work, in code
and data that do not change with the program), and gives the
control's CPU milliseconds per request.  A CPU time measured next to a
probe is reported as ``scale(cpu_ms, probe_ms)``: what it would have
been on a host where the control costs ``REF_MS`` per request.  The
ratio of the two costs stays put when the host's speed changes; a
change to the program moves it.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys

import client

#: Length of one probe.
PROBE_S = 0.5
#: The control's CPU per request on the reference host.
REF_MS = 0.05
#: Connections of a probe's closed loop.
CLIENTS = 2
STOP_TIMEOUT_S = 30.0
#: The probe's requests: fixed, and shaped like ``/v1/evaluate`` bodies.
BODIES = [
    json.dumps({
        "workload": f"workload-{i % 39}", "os": "ultrix",
        "config": ("economy", "high-performance")[i % 2],
        "mechanism": f"mechanism-{i % 7}", "instructions": 20_000,
        "seed": i, "wait": True,
    }).encode()
    for i in range(4096)
]


def free_port() -> int:
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        return listener.getsockname()[1]


def scale(cpu_ms: float, probe_ms: float) -> float:
    """``cpu_ms`` measured beside a probe of ``probe_ms``, at reference speed."""
    return cpu_ms * REF_MS / probe_ms


class Control:
    """A running ``control_server.py``, writing its corpus under ``work``."""

    def __init__(self, ctx):
        self.port = free_port()
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "control_server.py")
        corpus = os.path.join(ctx.work, "control-corpus")
        self.proc = subprocess.Popen(
            [sys.executable, script, corpus, str(self.port)],
            cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE,
        )
        self._next = 0
        if self.proc.stdout.readline().strip() != b"ready":
            self.stop()
            raise RuntimeError("the control server did not start")

    def _cpu_ns(self) -> int:
        # Nanoseconds, where /proc/PID/stat counts clock ticks: a short
        # probe needs the finer clock.
        with open(f"/proc/{self.proc.pid}/schedstat") as handle:
            return int(handle.read().split()[0])

    async def probe(self, seconds: float = PROBE_S) -> float:
        """The control's CPU milliseconds per request over ``seconds``."""
        before = self._cpu_ns()
        load = await client.closed_loop(
            "127.0.0.1", self.port, BODIES, CLIENTS, seconds, self._next
        )
        spent = (self._cpu_ns() - before) / 1e9
        self._next += len(load.samples)
        if any(sample.status != 200 for sample in load.samples):
            raise RuntimeError("the control server failed a request")
        return 1000.0 * spent / len(load.samples)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
