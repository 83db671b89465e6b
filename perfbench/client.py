"""A minimal keep-alive HTTP/1.1 client and the two load loops.

The benchmark owns its load generator so that what it measures does
not move when the program's own ``repro.loadgen`` changes, and so that
the open loop can honour a fixed connection cap: every request goes
over one of at most ``connections`` persistent sockets, and its latency
runs from the moment it was *due*, so a stall in the server (or in the
generator) is charged to every request it delays.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field

#: Per-request deadline; a request still unanswered is a failure.
TIMEOUT_S = 30.0


@dataclass
class Sample:
    """One request's outcome."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class Connection:
    """One persistent connection to the server."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload


async def _send(conn: Connection, body: bytes) -> tuple[int, bytes]:
    """POST one evaluate request; transport failures become status 0."""
    try:
        return await asyncio.wait_for(
            conn.request("POST", "/v1/evaluate", body), TIMEOUT_S
        )
    except (asyncio.TimeoutError, ConnectionError, OSError, ValueError,
            asyncio.IncompleteReadError):
        await conn.close()
        return 0, b""


async def get_json(host: str, port: int, path: str) -> dict:
    """One GET on a fresh connection, parsed as JSON."""
    conn = Connection(host, port)
    try:
        status, payload = await conn.request("GET", path)
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


@dataclass
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    #: Seconds the generator emitted each arrival after it was due
    #: (open loop only).
    lateness: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    start: float = 0.0
    wall_s: float = 0.0


async def closed_loop(
    host: str, port: int, bodies: list[bytes], clients: int, seconds: float,
    first: int = 0,
) -> LoadResult:
    """``clients`` keep-alive clients, each sending its next request as
    soon as the previous one answers, until ``seconds`` have passed.

    Requests are drawn in order from ``bodies``, starting at ``first``
    (recycled if the run outlasts it); a sample is due when its client
    sends it.
    """
    result = LoadResult()
    cursor = itertools.count(first)
    conns = [Connection(host, port) for _ in range(clients)]
    for conn in conns:
        await conn.open()
    cpu0, start = time.process_time(), time.perf_counter()
    result.start = start
    deadline = start + seconds

    async def client(conn: Connection) -> None:
        while time.perf_counter() < deadline:
            index = next(cursor)
            sent = time.perf_counter()
            status, payload = await _send(conn, bodies[index % len(bodies)])
            result.samples.append(
                Sample(index, sent, sent, time.perf_counter(), status, payload)
            )

    try:
        await asyncio.gather(*(client(conn) for conn in conns))
    finally:
        result.wall_s = time.perf_counter() - start
        result.cpu_s = time.process_time() - cpu0
        for conn in conns:
            await conn.close()
    return result


async def open_loop(
    host: str, port: int, bodies: list[bytes], rate: float, connections: int
) -> LoadResult:
    """Send ``bodies[i]`` at ``i / rate`` seconds over at most
    ``connections`` keep-alive connections.

    Arrivals that find every connection busy wait in one FIFO queue;
    their latency still runs from their due time.
    """
    result = LoadResult()
    queue: asyncio.Queue = asyncio.Queue()
    conns = [Connection(host, port) for _ in range(connections)]
    for conn in conns:
        await conn.open()

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            sent = time.perf_counter()
            status, payload = await _send(conn, bodies[index])
            result.samples.append(
                Sample(index, due, sent, time.perf_counter(), status, payload)
            )

    workers = [asyncio.create_task(worker(conn)) for conn in conns]
    cpu0, start = time.process_time(), time.perf_counter()
    result.start = start
    try:
        for index in range(len(bodies)):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness.append(max(0.0, time.perf_counter() - due))
            queue.put_nowait((index, due))
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    finally:
        result.wall_s = time.perf_counter() - start
        result.cpu_s = time.process_time() - cpu0
        for task in workers:
            task.cancel()
        for conn in conns:
            await conn.close()
    return result
