"""A frozen reference server that the benchmark reads the host's speed off.

    python3 perfbench/control_server.py CORPUS_DIR PORT

A small asyncio HTTP/1.1 keep-alive server.  At start it writes a fixed
corpus of JSON documents into ``CORPUS_DIR``.  For each request it
parses the JSON body, picks one document by a hash of the canonical
body, reads and parses that file and answers it wrapped in a JSON
object -- the same kind of work as a store hit of ``repro serve``
(socket I/O, a file read, JSON both ways), in code and data that do not
change with the program.  Prints ``ready`` once it listens; exits on
SIGTERM.

Keep this file as it is: the benchmark reports CPU times in units of
this server's cost per request (see ``control.py``), so a change here
moves those metrics for every commit measured after it.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import sys
import zlib

DOCUMENTS = 512


def write_corpus(directory: str) -> list[str]:
    """The fixed corpus: ``DOCUMENTS`` result-like JSON files."""
    rng = random.Random(0)
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i in range(DOCUMENTS):
        document = {
            "key": f"{i:08x}" * 4,
            "name": f"workload-{i % 39}",
            "config": ("economy", "high-performance")[i % 2],
            "metrics": {f"m{k}": rng.random() for k in range(12)},
            "series": [rng.random() for _ in range(24)],
            "labels": [f"label-{rng.randrange(1000)}" for _ in range(8)],
        }
        path = os.path.join(directory, f"doc-{i:03d}.json")
        with open(path, "w") as handle:
            json.dump(document, handle)
        paths.append(path)
    return paths


async def _serve(directory: str, port: int) -> None:
    files = write_corpus(directory)

    async def handle(reader, writer) -> None:
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                lines = head.decode("latin-1").split("\r\n")
                length = 0
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                body = await reader.readexactly(length) if length else b"{}"
                key = json.dumps(json.loads(body), sort_keys=True)
                path = files[zlib.crc32(key.encode()) % len(files)]
                with open(path) as source:
                    payload = json.load(source)
                out = json.dumps({"key": key, "result": payload}).encode()
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(out) + out
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", port)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print("ready", flush=True)
    async with server:
        await stop.wait()


def main(argv: list[str]) -> int:
    directory, port = argv
    asyncio.run(_serve(directory, int(port)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
