"""Launcher for the traced served run: ``repro serve`` with span wrappers.

Usage::

    python e2ebench/serve_traced.py SNAPSHOT_DIR PROTOCOL serve [serve args...]

It runs the ordinary ``serve`` entry point of ``repro.cli`` unchanged.  Each
SIGUSR1 writes ``SNAPSHOT_DIR/snapshot-<n>.json`` with the server's trace
statistics so far; the first one also installs the server-side wrappers, so
start-up and the bulk preload run untraced.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from tracer import Tracer, targets_for  # noqa: E402


def main(argv) -> int:
    snapshot_dir = pathlib.Path(argv[0])
    protocol = argv[1]
    serve_argv = argv[2:]
    tracer = Tracer()
    taken = [0]

    def on_signal(_signum, _frame) -> None:
        if taken[0] == 0:
            tracer.install(targets_for(protocol, "server"))
        path = snapshot_dir / f"snapshot-{taken[0]}.json"
        partial = path.with_suffix(".tmp")
        partial.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
        os.replace(partial, path)
        taken[0] += 1

    signal.signal(signal.SIGUSR1, on_signal)
    from repro.cli import main as repro_main

    return repro_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
