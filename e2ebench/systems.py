"""The systems under test: an in-process cluster or a ``repro serve`` process.

Both expose the same small surface the harness drives — a ``Session``, the
process CPU and peak RSS of whatever holds the cluster, and ``close()``.
Only public entry points are used: ``Cluster.build`` and ``Session`` in
process; ``python -m repro serve`` plus a default ``connect()`` when served.
"""

from __future__ import annotations

import os
import pathlib
import resource
import select
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from workloads import CLUSTER_SEED, REPLICAS, WorkloadSpec, preload_items

__all__ = ["LocalSystem", "ServedSystem", "build_system", "die_with_parent",
           "preload_batches"]

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Seconds a server may take to report that it is listening.
SERVER_START_TIMEOUT_S = 120.0
#: Client request timeout; generous, a closed loop never queues.
REQUEST_TIMEOUT_S = 30.0


def die_with_parent() -> None:
    """``preexec_fn`` for child processes: SIGTERM them if this process dies.

    So a benchmark killed from outside leaves no server or probe behind.
    """
    import ctypes
    import signal

    PR_SET_PDEATHSIG = 1
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass  # not Linux: children outlive a killed parent


def preload_batches(spec: WorkloadSpec) -> List[List[Tuple[str, Dict[str, int]]]]:
    """The bulk preload, split into ``insert_many`` batches."""
    items = preload_items(spec)
    return [items[start:start + spec.preload_batch]
            for start in range(0, len(items), spec.preload_batch)]


class LocalSystem:
    """An in-process cluster built with ``Cluster.build``."""

    served = False

    def __init__(self, spec: WorkloadSpec) -> None:
        from repro.api import Cluster

        self.cluster = Cluster.build(peers=spec.peers, protocol=spec.protocol,
                                     replicas=REPLICAS, seed=CLUSTER_SEED)
        self.session = self.cluster.session()

    @property
    def network(self):
        return self.cluster.network

    def server_cpu_seconds(self) -> float:
        """CPU of a separate server process: none in process."""
        return 0.0

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process, which holds the cluster."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def wire_bytes(self) -> int:
        """Socket bytes moved by the client: none in process."""
        return 0

    def close(self) -> None:
        self.session.close()


class ServedSystem:
    """A ``repro serve`` child process and a client connected to it.

    ``launcher`` replaces ``-m repro`` with a script that runs the same
    ``serve`` entry point (the traced run's launcher).
    """

    served = True

    def __init__(self, spec: WorkloadSpec, *,
                 launcher: Optional[List[str]] = None) -> None:
        from repro.net import connect

        command = [sys.executable] + (launcher or ["-m", "repro"]) + [
            "serve", "--port", "0", "--peers", str(spec.peers),
            "--protocol", spec.protocol, "--replicas", str(REPLICAS),
            "--seed", str(CLUSTER_SEED)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(command, cwd=str(ROOT), env=env,
                                        stdout=subprocess.PIPE,
                                        stdin=subprocess.DEVNULL,
                                        preexec_fn=die_with_parent)
        self.remote = None
        try:
            address = self._wait_listening()
            self.remote = connect(address, timeout_s=REQUEST_TIMEOUT_S)
            self.session = self.remote.session()
        except BaseException:
            self.close()
            raise

    def _wait_listening(self):
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith("listening on tcp://"):
                host, port = line.strip()[len("listening on tcp://"):].rsplit(":", 1)
                return (host, int(port))
        raise RuntimeError("the server did not report a listening address")

    @property
    def pid(self) -> int:
        return self.process.pid

    def server_cpu_seconds(self) -> float:
        """User + system CPU the server process has used so far."""
        with open(f"/proc/{self.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) of the server process, which holds the cluster."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def wire_bytes(self) -> int:
        """Socket bytes sent plus received by the client so far."""
        counters = self.remote.client.counters
        return counters.bytes_sent + counters.bytes_received

    def close(self) -> None:
        """Shut the server down gracefully and wait for it to exit."""
        try:
            if self.remote is not None:
                try:
                    self.remote.shutdown_server()
                finally:
                    self.remote.close()
            elif self.process.poll() is None:
                self.process.terminate()
            self.process.wait(timeout=30)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()


def build_system(spec: WorkloadSpec, *, launcher: Optional[List[str]] = None):
    """Build ``spec``'s cluster, or start its server and connect (no preload)."""
    if spec.served:
        return ServedSystem(spec, launcher=launcher)
    return LocalSystem(spec)
