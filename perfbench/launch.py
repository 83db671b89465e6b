"""Run a ``repro`` command line with every layer's entry points traced.

    python perfbench/launch.py SPANS_DIR -- <repro arguments...>

Installs the wrappers listed in ``layers.WRAPS`` (plus every experiment
result's ``render``), opens a ``run`` span around ``repro.cli.main``
and writes the spans of this process -- and of every forked pool
worker, after each of its cells -- into ``SPANS_DIR``.  The program
itself is unchanged; ``repro`` must be importable (``PYTHONPATH``).
"""

from __future__ import annotations

import inspect
import os
import sys

import layers
import spans


def _render_targets():
    from repro.experiments import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS

    targets = []
    for module in {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}.values():
        for name, cls in vars(module).items():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and "render" in cls.__dict__
            ):
                targets.append(
                    (layers.RENDER_SPAN, module.__name__, f"{name}.render", None)
                )
    return targets


def _probe() -> dict:
    from repro.caches.vectorized import order_cache_stats

    return {"order_evictions": order_cache_stats()["evictions"]}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_dir, repro_args = argv[0], argv[2:]
    os.makedirs(out_dir, exist_ok=True)

    import repro.cli
    import repro.service.app  # noqa: F401 - bind serve-path names first
    import repro.service.warm  # noqa: F401

    recorder = spans.Recorder(out_dir, probe=_probe)
    spans.install(recorder, list(layers.WRAPS) + _render_targets())
    os.register_at_fork(after_in_child=recorder.after_fork)
    try:
        with recorder.span("run"):
            status = repro.cli.main(repro_args)
    finally:
        recorder.flush()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
