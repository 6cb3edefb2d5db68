"""Set-up, warm-up and the timed window, with calibration between blocks.

One closed-loop client with one outstanding call drives the pre-generated
stream.  Every item is timed on its own; a calibration slice runs between
blocks of ``BLOCK_ITEMS`` items, and each item's raw duration is divided by
its block's speed factor, so every timing reads in reference-machine seconds.
Bookkeeping — oracle checks, CPU reads, peer picks — stays outside the
timed spans.
"""

from __future__ import annotations

import gc
import json
import math
import pathlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from calibration import Calibration
from oracle import Oracle
from systems import build_system, die_with_parent, preload_batches
from workloads import DATA_KINDS, MEMBERSHIP_KINDS, WorkloadSpec

__all__ = ["BLOCK_ITEMS", "Setup", "Window", "run_setups", "run_window",
           "percentile"]

#: Stream items between two calibration slices.
BLOCK_ITEMS = 10
#: Calibration slices taken on each side of one set-up.
SETUP_SLICES = 3
#: Seconds one set-up probe may take.
PROBE_TIMEOUT_S = 300

BENCH_DIR = pathlib.Path(__file__).resolve().parent


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in ``(0, 1]``) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = min(max(1, math.ceil(share * len(ordered) - 1e-9)), len(ordered))
    return ordered[rank - 1]


@dataclass
class Setup:
    """Set-up timings (build or server start, plus the bulk preload)."""

    raw_seconds: List[float] = field(default_factory=list)
    factors: List[float] = field(default_factory=list)

    @property
    def normalised_seconds(self) -> List[float]:
        return [raw / factor for raw, factor in zip(self.raw_seconds, self.factors)]


def time_setup(spec: WorkloadSpec, *, launcher: Optional[List[str]] = None):
    """Set the system up once, timed; returns ``(system, oracle, seconds, factor)``.

    The set-up is the build (or server start) followed by the preload
    batches, with a calibration slice between every two segments; the
    normalised seconds divide each segment by its own factor, and
    ``factor`` is raw over normalised.  The client-side modules are imported
    first: importing is a once-per-process cost, not part of a deployment.
    """
    import repro.api  # noqa: F401
    import repro.net  # noqa: F401

    gc.collect()
    calibration = Calibration()
    for _ in range(SETUP_SLICES):
        calibration.slice()
    clock = time.perf_counter
    started = clock()
    system = build_system(spec, launcher=launcher)
    segments = [clock() - started]
    oracle = Oracle()
    try:
        for batch in preload_batches(spec):
            calibration.slice()
            started = clock()
            result = system.session.insert_many(batch)
            segments.append(clock() - started)
            oracle.check_batch_insert(batch, result)
    except BaseException:
        system.close()
        raise
    for _ in range(SETUP_SLICES):
        calibration.slice()
    # Segment i sits between slices SETUP_SLICES - 1 + i and the next one.
    normalised = sum(seconds / calibration.factor_for_block(SETUP_SLICES - 1 + index)
                     for index, seconds in enumerate(segments))
    raw = sum(segments)
    return system, oracle, raw, raw / normalised


def _probe_setup(spec: WorkloadSpec) -> Tuple[float, float]:
    """One set-up in a fresh process (no module-level cache carries over)."""
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), spec.name]
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=PROBE_TIMEOUT_S, cwd=str(BENCH_DIR.parent),
                               preexec_fn=die_with_parent)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{completed.stderr[-2000:]}")
    reading = json.loads(completed.stdout.strip().splitlines()[-1])
    return reading["seconds"], reading["factor"]


def run_setups(spec: WorkloadSpec, count: int, *,
               launcher: Optional[List[str]] = None):
    """Set the system up ``count`` times, each in a cold process; keep the last.

    All but the last set-up run in a child process that exits afterwards;
    the last runs here and serves the timed window.  Returns
    ``(system, oracle, Setup)``.
    """
    timings = Setup()
    for _ in range(count - 1):
        seconds, factor = _probe_setup(spec)
        timings.raw_seconds.append(seconds)
        timings.factors.append(factor)
    system, oracle, seconds, factor = time_setup(spec, launcher=launcher)
    timings.raw_seconds.append(seconds)
    timings.factors.append(factor)
    return system, oracle, timings


@dataclass
class Window:
    """Everything measured over one timed window."""

    items: int = 0
    data_ops: int = 0
    events: int = 0
    sync_rounds: int = 0
    failed: int = 0
    raw_seconds: float = 0.0
    normalised_seconds: float = 0.0
    client_cpu_seconds: float = 0.0
    server_cpu_seconds: float = 0.0
    normalised_cpu_seconds: float = 0.0
    messages: int = 0
    model_bytes: int = 0
    wire_bytes: int = 0
    retrieves: int = 0
    current: int = 0
    #: Raw over normalised window time: the run's effective speed factor.
    factor: float = 1.0
    calibration_seconds: float = 0.0
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    raw_latencies: Dict[str, List[float]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: Raw per-item record, kept for re-analysis: ``items`` are
    #: ``(block, sample kind, seconds, cpu seconds)``, ``slice_s`` the
    #: calibration slices in order, ``server_cpu_s`` per block.
    timeline: Dict[str, list] = field(default_factory=lambda: {
        "items": [], "slice_s": [], "server_cpu_s": []})

    def sample(self, kind: str, raw: float, normalised: float) -> None:
        self.latencies.setdefault(kind, []).append(normalised)
        self.raw_latencies.setdefault(kind, []).append(raw)


class _Runner:
    """Executes stream items against one system and checks every answer."""

    def __init__(self, system, oracle: Oracle) -> None:
        self.system = system
        self.session = system.session
        self.oracle = oracle
        self.warmup_errors: List[str] = []

    def prepare(self, item: tuple):
        """``(callable, args, kwargs)`` for ``item``; untimed peer picks happen here."""
        kind = item[0]
        session = self.session
        if kind == "retrieve":
            return session.retrieve, (item[1],), {}
        if kind == "insert":
            _kind, key, data, replica = item
            if replica is None:
                return session.insert, (key, data), {}
            cluster = self.system.cluster
            holder = cluster.network.responsible_peer(key, cluster.replication[replica])
            return session.insert, (key, data), {"unreachable": frozenset((holder,))}
        if kind == "retrieve_many":
            return session.retrieve_many, (list(item[1]),), {}
        if kind == "insert_many":
            return session.insert_many, (list(item[1]),), {}
        network = self.system.network
        if kind == "join":
            return network.join_peer, (), {}
        if kind == "sync":
            return self.system.cluster.sync_replicas, (), {}
        alive = sorted(network.alive_peer_ids())
        peer = alive[min(int(item[1] * len(alive)), len(alive) - 1)]
        if kind == "leave":
            return network.leave_peer, (peer,), {}
        return network.fail_peer, (peer,), {}

    def check(self, item: tuple, result: Any) -> bool:
        """Run the oracle on a data op's answer; ``True`` when sound."""
        kind = item[0]
        if kind == "retrieve":
            return self.oracle.check_retrieve(item[1], result)
        if kind == "insert":
            return self.oracle.check_insert(item[1], item[2], result)
        if kind == "retrieve_many":
            return self.oracle.check_batch_retrieve(item[1], result)
        return self.oracle.check_batch_insert(item[1], result)

    def run(self, items: List[tuple], window: Optional[Window] = None) -> None:
        """Execute ``items`` in order; time and account them into ``window``.

        Answers are checked right after each block, outside the timed spans,
        and then dropped.  Without a window (the warm-up) nothing is timed,
        but every answer is still checked.
        """
        calibration = Calibration()
        clock, cpu = time.perf_counter, time.process_time
        blocks: List[List[tuple]] = []
        for start in range(0, len(items), BLOCK_ITEMS):
            calibration.slice()
            server_cpu = self.system.server_cpu_seconds()
            timings = []
            for item in items[start:start + BLOCK_ITEMS]:
                function, args, kwargs = self.prepare(item)
                error_text = None
                cpu_start = cpu()
                began = clock()
                try:
                    result = function(*args, **kwargs)
                except Exception as error:  # a failed op; the run goes on
                    result = None
                    error_text = f"{item[0]}: {type(error).__name__}: {error}"
                elapsed = clock() - began
                cpu_used = cpu() - cpu_start
                timings.append((item, result, elapsed, cpu_used, error_text))
            server_cpu = self.system.server_cpu_seconds() - server_cpu
            if window is None:
                self._check_warmup(timings)
            else:
                blocks.append((self._account(window, timings), server_cpu))
        calibration.slice()
        if window is None:
            return
        for block_index, (samples, server_cpu) in enumerate(blocks):
            # A block's factor uses the slices on both sides of it.
            factor = calibration.factor_for_block(block_index)
            window.server_cpu_seconds += server_cpu
            window.normalised_cpu_seconds += server_cpu / factor
            window.timeline["server_cpu_s"].append(server_cpu)
            for kind, elapsed, cpu_used in samples:
                window.timeline["items"].append((block_index, kind, elapsed, cpu_used))
                normalised = elapsed / factor
                window.normalised_seconds += normalised
                window.normalised_cpu_seconds += cpu_used / factor
                if kind is not None:
                    window.sample(kind, elapsed, normalised)
        window.factor = window.raw_seconds / window.normalised_seconds
        window.calibration_seconds = calibration.total_seconds
        window.timeline["slice_s"] = list(calibration.seconds)
        window.retrieves = self.oracle.retrieves
        window.current = self.oracle.current
        window.errors.extend(self.oracle.violations)

    def _check_warmup(self, timings) -> None:
        for item, result, _elapsed, _cpu, error_text in timings:
            if error_text is not None:
                self.warmup_errors.append(f"warm-up {error_text}")
            elif item[0] in DATA_KINDS:
                self.check(item, result)  # a violation lands in the oracle

    def _account(self, window: Window, timings) -> List[tuple]:
        """Count and check one block; return its ``(sample kind, seconds, cpu)``."""
        samples = []
        for item, result, elapsed, cpu_used, error_text in timings:
            kind = item[0]
            window.items += 1
            window.raw_seconds += elapsed
            window.client_cpu_seconds += cpu_used
            if kind in DATA_KINDS:
                window.data_ops += 1
            elif kind in MEMBERSHIP_KINDS:
                window.events += 1
            else:
                window.sync_rounds += 1
            sample_kind = None
            if error_text is not None:
                window.errors.append(error_text)
                window.failed += kind in DATA_KINDS
            elif kind in MEMBERSHIP_KINDS:
                sample_kind = "membership"
            elif kind in DATA_KINDS:
                window.messages += result.trace.message_count
                window.model_bytes += result.trace.total_bytes
                if not self.check(item, result):
                    window.failed += 1
                elif kind in ("retrieve", "insert"):
                    sample_kind = kind
            samples.append((sample_kind, elapsed, cpu_used))
        return samples


def run_window(system, oracle: Oracle, warmup: List[tuple],
               stream: List[tuple], *, on_open=None) -> Window:
    """Warm up, collect garbage, then run and measure the timed window.

    ``on_open`` is called right before the window opens (the traced run
    snapshots its counters there).
    """
    runner = _Runner(system, oracle)
    runner.run(warmup)
    oracle.reset_counts()
    gc.collect()
    if on_open is not None:
        on_open()
    window = Window(errors=list(runner.warmup_errors))
    wire = system.wire_bytes()
    runner.run(stream, window)
    window.wire_bytes = system.wire_bytes() - wire
    return window


def summarise_setup(setup: Setup) -> Dict[str, float]:
    """The set-up figures: the reported (normalised) median and the raw one."""
    normalised = statistics.median(setup.normalised_seconds)
    return {"reported": normalised,
            "raw_median_s": statistics.median(setup.raw_seconds),
            "normalised_median_s": normalised,
            "raw_s": setup.raw_seconds, "factors": setup.factors}
