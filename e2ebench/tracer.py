"""Span tracer installed from outside: wrappers around each layer's public functions.

Every target is named as ``module:Qualified.name``.  Installing a target
replaces that attribute with a wrapper that records a span: its duration,
and the part of it covered by child spans, so a layer's *self* time is its
duration minus its children's.  Spans nest through one stack per process —
the benchmark is a closed loop with one outstanding call, so at any moment
exactly one thread is inside the system (the client's event-loop thread only
runs while the calling thread waits on it).

A target that no longer exists is reported as missing and skipped, never an
error: later refactors may delete or move functions without breaking the
benchmark.  Observers read counts off return values at the same boundaries
(hops per route, probes per retrieve, rejected puts, ...).
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "ROUTE_TARGETS", "Tracer", "targets_for"]

#: layer -> (side, targets).  ``side`` is where the layer runs when served:
#: "client", "server" or "both" (the codec runs on both ends).
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "api": ("client", (
        "repro.api.cluster:Session.insert",
        "repro.api.cluster:Session.retrieve",
        "repro.api.cluster:Session.insert_many",
        "repro.api.cluster:Session.retrieve_many")),
    "net.client": ("client", (
        "repro.net.client:RemoteService.insert",
        "repro.net.client:RemoteService.retrieve",
        "repro.net.client:RemoteService.insert_many",
        "repro.net.client:RemoteService.retrieve_many",
        "repro.net.client:NetClient.request")),
    "net.codec": ("both", (
        "repro.net.codec:encode_frame",
        "repro.net.codec:decode_frame",
        "repro.net.codec:FrameDecoder.feed",
        "repro.net.codec:FrameDecoder.feed_with_formats")),
    "net.server": ("server", (
        "repro.net.server:NodeServer.handle_request",)),
    "core.ums": ("server", (
        "repro.core.ums:UpdateManagementService.insert",
        "repro.core.ums:UpdateManagementService.retrieve",
        "repro.core.ums:UpdateManagementService.insert_many",
        "repro.core.ums:UpdateManagementService.retrieve_many")),
    "core.kts": ("server", (
        "repro.core.kts:KeyBasedTimestampService.gen_ts",
        "repro.core.kts:KeyBasedTimestampService.last_ts",
        "repro.core.kts:KeyBasedTimestampService.gen_ts_many",
        "repro.core.kts:KeyBasedTimestampService.last_ts_many",
        "repro.core.kts:KeyBasedTimestampService.peer_joined",
        "repro.core.kts:KeyBasedTimestampService.peer_left",
        "repro.core.kts:KeyBasedTimestampService.peer_failed")),
    "core.replication": ("server", (
        "repro.core.replication:ReplicationScheme.sync_replicas",)),
    "dht.network": ("server", (
        "repro.dht.network:DHTNetwork.lookup",
        "repro.dht.network:DHTNetwork.get",
        "repro.dht.network:DHTNetwork.put",
        "repro.dht.network:DHTNetwork.get_many",
        "repro.dht.network:DHTNetwork.put_many",
        "repro.dht.network:DHTNetwork.join_peer",
        "repro.dht.network:DHTNetwork.leave_peer",
        "repro.dht.network:DHTNetwork.fail_peer")),
    "dht.route": ("server", ()),  # the workload's overlay: ROUTE_TARGETS
    "dht.messages": ("server", (
        "repro.dht.messages:OperationTrace.record",
        "repro.dht.messages:OperationTrace.record_route",
        "repro.dht.messages:OperationTrace.record_request_reply")),
    "dht.hashing": ("server", (
        "repro.dht.hashing:PairwiseIndependentHash.__call__",)),
    "dht.storage": ("server", (
        "repro.dht.storage:LocalStore.get",
        "repro.dht.storage:LocalStore.put",
        "repro.dht.storage:LocalStore.entries_in_span",
        "repro.dht.storage:LocalStore.entries_at",
        "repro.dht.storage:LocalStore.entries_newer_than")),
}

#: ``DHTProtocol.route`` of each overlay the workloads use.
ROUTE_TARGETS = {
    "chord": "repro.dht.chord:ChordRing.route",
    "kademlia": "repro.dht.kademlia:KademliaOverlay.route",
    "can": "repro.dht.can:CanSpace.route",
}


def targets_for(protocol: str, side: str) -> List[Tuple[str, str]]:
    """``(layer, target)`` pairs to install in a process playing ``side``.

    ``side`` is "client", "server" or "all" (in process: one process plays
    both parts).
    """
    chosen = []
    for layer, (layer_side, targets) in LAYERS.items():
        if layer == "dht.route":
            targets = (ROUTE_TARGETS[protocol],)
        if side == "all" or layer_side in (side, "both"):
            chosen.extend((layer, target) for target in targets)
    return chosen


# ------------------------------------------------------------- observers
def _observe_route(tracer: "Tracer", result: Any) -> None:
    tracer.add("route.hops", result.hops)
    tracer.add("route.retries", result.retries)


def _observe_put(tracer: "Tracer", result: Any) -> None:
    if not result:
        tracer.add("storage.put_rejected", 1)


def _observe_span_entries(tracer: "Tracer", result: Any) -> None:
    tracer.add("storage.span_entries", len(result))


def _observe_ums_retrieve(tracer: "Tracer", result: Any) -> None:
    answers = getattr(result, "results", (result,))
    for answer in answers:
        tracer.add("ums.retrieves", 1)
        tracer.add("ums.probes", answer.replicas_inspected)
        if answer.is_current:
            tracer.add("ums.current", 1)


def _observe_sync(tracer: "Tracer", result: Any) -> None:
    tracer.add("sync.rounds", 1)
    tracer.add("sync.transfer_ratio", result.transfer_ratio)


def _observe_request(tracer: "Tracer", result: Any) -> None:
    _value, stats = result
    tracer.add("client.bytes", stats.bytes_sent + stats.bytes_received)
    tracer.add("client.retries", stats.retries)


OBSERVERS: Dict[str, Callable[["Tracer", Any], None]] = {
    "repro.dht.chord:ChordRing.route": _observe_route,
    "repro.dht.kademlia:KademliaOverlay.route": _observe_route,
    "repro.dht.can:CanSpace.route": _observe_route,
    "repro.dht.storage:LocalStore.put": _observe_put,
    "repro.dht.storage:LocalStore.entries_in_span": _observe_span_entries,
    "repro.dht.storage:LocalStore.entries_at": _observe_span_entries,
    "repro.dht.storage:LocalStore.entries_newer_than": _observe_span_entries,
    "repro.core.ums:UpdateManagementService.retrieve": _observe_ums_retrieve,
    "repro.core.ums:UpdateManagementService.retrieve_many": _observe_ums_retrieve,
    "repro.core.replication:ReplicationScheme.sync_replicas": _observe_sync,
    "repro.net.client:NetClient.request": _observe_request,
}


def _resolve(target: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, raw value)`` of ``target``, or ``None`` if absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = (owner.__dict__.get(attribute) if isinstance(owner, type)
           else getattr(owner, attribute, None))
    if raw is None and isinstance(owner, type):
        raw = getattr(owner, attribute, None)  # inherited: wrap on the owner
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, attribute, raw


class Tracer:
    """Per-process span statistics: calls, total and self seconds per target.

    ``root_seconds`` sums the spans that started with nothing else open —
    the time this process spent inside the traced layers at all.
    """

    def __init__(self) -> None:
        self.layer_of: Dict[str, str] = {}
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counts: Dict[str, float] = {"root_seconds": 0.0}
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to the named count."""
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _wrap(self, target: str, function: Callable) -> Callable:
        stack, clock = self._stack, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        counts = self.counts
        observer = OBSERVERS.get(target)
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[target] += 1
                total[target] += elapsed
                self_time[target] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    counts["root_seconds"] += elapsed
            if observer is not None:
                observer(tracer, result)
            return result

        return wrapper

    def install(self, pairs: List[Tuple[str, str]]) -> None:
        """Wrap every ``(layer, target)``; absent targets land in ``missing``."""
        for layer, target in pairs:
            resolved = _resolve(target)
            if resolved is None:
                self.missing.append(target)
                continue
            owner, attribute, raw = resolved
            self.layer_of[target] = layer
            self.calls[target] = 0
            self.total[target] = 0.0
            self.self_time[target] = 0.0
            if isinstance(raw, staticmethod):
                wrapped: Any = staticmethod(self._wrap(target, raw.__func__))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(target, raw.__func__))
            else:
                wrapped = self._wrap(target, raw)
            self._installed.append((owner, attribute, owner.__dict__.get(attribute)
                                    if isinstance(owner, type) else raw))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attribute, original in reversed(self._installed):
            if original is None:
                delattr(owner, attribute)  # it was inherited
            else:
                setattr(owner, attribute, original)
        self._installed.clear()

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of every statistic so far, and the process's
        CPU seconds (``cpu_s``) at the moment it was taken."""
        return {"layer_of": dict(self.layer_of), "calls": dict(self.calls),
                "total": dict(self.total), "self": dict(self.self_time),
                "counts": dict(self.counts), "missing": list(self.missing),
                "cpu_s": time.process_time()}


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` of two snapshots of one tracer."""
    result = {"layer_of": after["layer_of"], "missing": after["missing"],
              "cpu_s": after["cpu_s"] - before["cpu_s"]}
    for field in ("calls", "total", "self", "counts"):
        result[field] = {name: value - before[field].get(name, 0)
                         for name, value in after[field].items()}
    return result
