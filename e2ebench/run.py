"""End-to-end benchmark of the replicated DHT, with a per-layer waterfall.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload served-chord-1k --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same stream twice — untraced, then with span wrappers
installed from this directory (in the server too, through
``serve_traced.py``) — and prints the per-layer metrics, including how much
of the measured op time the layers account for and what tracing cost.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
report goes to standard error, and the full record (raw seconds and
calibration factors next to every scaled number, the trace per target) to
``.e2ebench-out/`` in the checkout.  The exit code is non-zero when any
answer failed the oracle or any op raised.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".e2ebench-out"

#: The traced served run starts ``repro serve`` through this launcher.
SERVER_LAUNCHER = BENCH_DIR / "serve_traced.py"

#: Seconds to wait for the traced server to write a snapshot.
SNAPSHOT_TIMEOUT_S = 60.0


def _parse(argv: List[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="op-stream seed (the deployment is fixed)")
    parser.add_argument("--seconds", type=int, required=True,
                        help="sets the window's op count: the workload's "
                             "items per second times this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a small deployment and stream (smoke tests)")
    return parser.parse_args(argv)


def _untraced(spec, warmup, stream) -> Dict[str, Any]:
    from harness import run_setups, run_window, summarise_setup
    from metrics import end_to_end, raw_timings, workload_extras

    system, oracle, setup = run_setups(spec, spec.setups)
    try:
        window = run_window(system, oracle, warmup, stream)
        rss = system.peak_rss_mb()
    finally:
        system.close()
    setup_summary = summarise_setup(setup)
    return {"windows": [window],
            "metrics": end_to_end(window, setup_summary["reported"], rss),
            "raw": raw_timings(window), "extras": workload_extras(window),
            "setup": setup_summary}


class _ServerSnapshots:
    """Asks the traced server for trace snapshots (SIGUSR1) and reads them."""

    def __init__(self, system, directory: pathlib.Path) -> None:
        self.system = system
        self.directory = directory
        self.taken = 0

    def take(self) -> Dict[str, Any]:
        import signal

        path = self.directory / f"snapshot-{self.taken}.json"
        os.kill(self.system.pid, signal.SIGUSR1)
        deadline = time.monotonic() + SNAPSHOT_TIMEOUT_S
        while not path.exists():
            if time.monotonic() > deadline or self.system.process.poll() is not None:
                raise RuntimeError(f"the traced server wrote no {path.name}")
            time.sleep(0.01)
        self.taken += 1
        return json.loads(path.read_text(encoding="utf-8"))


def _traced(spec, warmup, stream) -> Dict[str, Any]:
    import shutil

    from harness import run_setups, run_window
    from metrics import per_layer, workload_extras
    from tracer import Tracer, delta, targets_for

    # The untraced twin: the overhead baseline and the workload extras.
    system, oracle, _setup = run_setups(spec, 1)
    try:
        base = run_window(system, oracle, warmup, stream)
    finally:
        system.close()
    untraced_ops_per_s = base.data_ops / base.normalised_seconds

    tracer = Tracer()
    launcher: Optional[List[str]] = None
    snapshot_dir = OUT_DIR / f"snapshots-{os.getpid()}"
    if spec.served:
        shutil.rmtree(snapshot_dir, ignore_errors=True)
        snapshot_dir.mkdir(parents=True)
        launcher = [str(SERVER_LAUNCHER), str(snapshot_dir), spec.protocol]
    marks: Dict[str, Any] = {}
    system, oracle, _setup = run_setups(spec, 1, launcher=launcher)
    try:
        server = _ServerSnapshots(system, snapshot_dir) if spec.served else None
        tracer.install(targets_for(spec.protocol, "client" if spec.served else "all"))
        if server is not None:
            server.take()  # installs the server-side wrappers

        def kts_stats() -> Dict[str, int]:
            return {} if spec.served else dataclasses.asdict(system.cluster.kts.stats)

        def on_open() -> None:
            marks["client"] = tracer.snapshot()
            marks["server"] = server.take() if server is not None else None
            marks["kts"] = kts_stats()

        window = run_window(system, oracle, warmup, stream, on_open=on_open)
        client = delta(tracer.snapshot(), marks["client"])
        server_delta = (delta(server.take(), marks["server"])
                        if server is not None else None)
        kts_after = kts_stats()
    finally:
        tracer.uninstall()
        system.close()
        shutil.rmtree(snapshot_dir, ignore_errors=True)
    kts_delta = {name: value - marks.get("kts", {}).get(name, 0)
                 for name, value in kts_after.items()}
    if server_delta is not None and not server_delta["counts"]["root_seconds"]:
        window.errors.append("the traced server recorded no spans")
    extras = workload_extras(base)
    missing = sorted(set(client["missing"])
                     | set(server_delta["missing"] if server_delta else ()))
    return {"windows": [base, window],
            "metrics": per_layer(window, client, server_delta, kts_delta,
                                 untraced_ops_per_s, extras),
            "trace": {"client": client, "server": server_delta,
                      "missing_targets": missing,
                      "counts_unchanged": (base.messages == window.messages
                                           and base.model_bytes == window.model_bytes)}}


def _report(workload: str, outcome: Dict[str, Any]) -> None:
    from metrics import with_units

    out = sys.stderr
    window = outcome["windows"][-1]
    out.write(f"{workload}: {window.data_ops} data ops, {window.events} "
              f"membership events, {window.sync_rounds} sync rounds; "
              f"calibration factor {window.factor:.3f} "
              f"({window.calibration_seconds / max(window.raw_seconds, 1e-9):.1%}"
              " of the window)\n")
    raw = outcome.get("raw", {})
    for name, entry in with_units(outcome["metrics"]).items():
        note = f"   raw {raw[name]:.6g}" if name in raw else ""
        out.write(f"  {name:<38} {entry['value']:>14.6g} {entry['unit']:<6}{note}\n")
    if "setup" in outcome:
        setup = outcome["setup"]
        out.write(f"  setup raw {setup['raw_s']} factors "
                  f"{[round(f, 3) for f in setup['factors']]}\n")
    for name, value in outcome.get("extras", {}).items():
        out.write(f"  {name:<38} {value:>14.6g}\n")
    for error in window.errors[:10]:
        out.write(f"  ERROR {error}\n")
    trace = outcome.get("trace")
    if trace and trace["missing_targets"]:
        out.write(f"  layers missing targets: {trace['missing_targets']}\n")


def _pin_to_one_cpu() -> None:
    """Run this process and every child (server, set-up probes) on one CPU.

    A closed loop never runs client and server at once, and on a shared host
    the two CPUs need not run at the same speed: on one CPU the calibration
    slices see the speed the server sees too.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    arguments = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"no repro package under {ROOT / 'src'}; run from a "
                         "full checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    _pin_to_one_cpu()
    from workloads import WORKLOADS, generate_stream, tiny

    spec = WORKLOADS[arguments.workload]
    if arguments.tiny:
        spec = tiny(spec)
    warmup, stream = generate_stream(spec, arguments.seed,
                                     spec.items_per_second * arguments.seconds)
    outcome = (_traced if arguments.trace else _untraced)(spec, warmup, stream)
    windows = outcome["windows"]
    attempted = sum(window.data_ops for window in windows)
    failed = sum(window.failed for window in windows)
    errors = [error for window in windows for error in window.errors]
    correct = failed == 0 and not errors
    _report(arguments.workload, outcome)

    from metrics import with_units

    record = {"workload": arguments.workload, "seed": arguments.seed,
              "seconds": arguments.seconds, "trace": arguments.trace,
              "correct": correct, "attempted": attempted, "failed": failed,
              "errors": errors[:50],
              "metrics": outcome["metrics"], "raw_timings": outcome.get("raw"),
              "extras": outcome.get("extras"), "setup": outcome.get("setup"),
              "windows": [{"items": w.items, "data_ops": w.data_ops,
                           "events": w.events, "sync_rounds": w.sync_rounds,
                           "raw_seconds": w.raw_seconds,
                           "normalised_seconds": w.normalised_seconds,
                           "factor": w.factor,
                           "calibration_seconds": w.calibration_seconds,
                           "messages": w.messages, "model_bytes": w.model_bytes,
                           "wire_bytes": w.wire_bytes} for w in windows],
              "timeline": windows[-1].timeline,
              "trace_detail": outcome.get("trace")}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{arguments.workload}-seed{arguments.seed}-trace{arguments.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True),
                                encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": with_units(outcome["metrics"])}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
