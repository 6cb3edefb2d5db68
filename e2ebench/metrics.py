"""Metric definitions and their computation from a window and a trace.

``END_TO_END`` are the numbers a user of the system sees, printed by the
untraced run (``--trace 0``); ``PER_LAYER`` come from the traced run
(``--trace 1``).  ``BENCHMARK.json`` lists the same names, units and bounds,
which the benchmark's tests pin.

Workload-specific user-facing numbers — socket bytes (served only),
membership latency (churn only) and the error rate (0 whenever the run is
correct) — cannot be measured on every workload, or are 0, so they travel
with the traced run's per-layer metrics and appear in every report.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from harness import Window, percentile

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer",
           "workload_extras"]

#: name, unit, better, bound (share of the parent's median).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("ops_per_s", "1/s", "higher", 0.2),
    ("retrieve_p50_ms", "ms", "lower", 0.2),
    ("retrieve_p90_ms", "ms", "lower", 0.25),
    ("insert_p50_ms", "ms", "lower", 0.2),
    ("insert_p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.2),
    ("msgs_per_op", "count", "lower", 0.1),
    ("bytes_per_op", "B", "lower", 0.1),
    ("current_rate", "ratio", "higher", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

#: name, unit, better.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("api.session.self_us", "us", "lower"),
    ("net.client.request_us", "us", "lower"),
    ("net.client.requests", "count", "lower"),
    ("net.client.retries", "count", "lower"),
    ("net.client.bytes_per_request", "B", "lower"),
    ("net.codec.client_encode_us", "us", "lower"),
    ("net.codec.client_decode_us", "us", "lower"),
    ("net.codec.server_encode_us", "us", "lower"),
    ("net.codec.server_decode_us", "us", "lower"),
    ("net.codec.frames", "count", "lower"),
    ("net.server.dispatch_self_us", "us", "lower"),
    ("net.transport.us", "us", "lower"),
    ("core.ums.self_us", "us", "lower"),
    ("core.ums.probes_per_retrieve", "count", "lower"),
    ("core.ums.current_per_probe", "ratio", "higher"),
    ("core.kts.gen_ts_us", "us", "lower"),
    ("core.kts.last_ts_us", "us", "lower"),
    ("core.kts.direct_transfers_per_event", "count", "lower"),
    ("core.kts.indirect_inits_per_event", "count", "lower"),
    ("core.replication.sync_ms_per_round", "ms", "lower"),
    ("core.replication.transfer_ratio", "ratio", "lower"),
    ("dht.network.self_us", "us", "lower"),
    ("dht.network.join_ms", "ms", "lower"),
    ("dht.network.leave_ms", "ms", "lower"),
    ("dht.network.fail_ms", "ms", "lower"),
    ("dht.route.self_us", "us", "lower"),
    ("dht.route.routes", "count", "lower"),
    ("dht.route.hops_per_route", "count", "lower"),
    ("dht.route.retries_per_route", "count", "lower"),
    ("dht.messages.records", "count", "lower"),
    ("dht.messages.self_us", "us", "lower"),
    ("dht.hashing.evals", "count", "lower"),
    ("dht.hashing.self_us", "us", "lower"),
    ("dht.storage.self_us", "us", "lower"),
    ("dht.storage.calls", "count", "lower"),
    ("dht.storage.put_rejected_share", "ratio", "lower"),
    ("dht.storage.span_entries_per_event", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("wire_bytes_per_op", "B", "lower"),
    ("membership_p50_ms", "ms", "lower"),
    ("membership_p90_ms", "ms", "lower"),
    ("error_rate", "ratio", "lower"),
]

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ms(values: List[float], share: float) -> float:
    """A percentile in milliseconds; 0 when every sample failed (a failed run)."""
    return percentile(values, share) * 1e3 if values else 0.0


def end_to_end(window: Window, setup_seconds: float,
               peak_rss_mb: float) -> Dict[str, float]:
    """Every end-to-end metric of one untraced run."""
    ops = window.data_ops
    ms = 1e3
    return {
        "ops_per_s": ops / window.normalised_seconds,
        "retrieve_p50_ms": _ms(window.latencies.get("retrieve", []), 0.50),
        "retrieve_p90_ms": _ms(window.latencies.get("retrieve", []), 0.90),
        "insert_p50_ms": _ms(window.latencies.get("insert", []), 0.50),
        "insert_p90_ms": _ms(window.latencies.get("insert", []), 0.90),
        "cpu_ms_per_op": window.normalised_cpu_seconds / ops * ms,
        "msgs_per_op": window.messages / ops,
        "bytes_per_op": window.model_bytes / ops,
        "current_rate": _ratio(window.current, window.retrieves),
        "setup_s": setup_seconds,
        "peak_rss_mb": peak_rss_mb,
    }


def raw_timings(window: Window) -> Dict[str, float]:
    """The timings un-normalised, recorded next to the scaled ones, plus
    the 99th percentiles (recorded, not gated: see README.md)."""
    ops = window.data_ops
    ms = 1e3
    raw = {"ops_per_s": ops / window.raw_seconds,
           "cpu_ms_per_op": (window.client_cpu_seconds
                             + window.server_cpu_seconds) / ops * ms}
    for kind in ("retrieve", "insert"):
        for share, label in ((0.50, "p50"), (0.90, "p90"), (0.99, "p99")):
            raw[f"{kind}_{label}_ms"] = _ms(window.raw_latencies.get(kind, []), share)
        raw[f"{kind}_p99_ms_normalised"] = _ms(window.latencies.get(kind, []), 0.99)
    return raw


def workload_extras(window: Window) -> Dict[str, float]:
    """The user-facing numbers that exist on some workloads only."""
    membership = window.latencies.get("membership", [])
    return {
        "wire_bytes_per_op": window.wire_bytes / window.data_ops,
        "membership_p50_ms": _ms(membership, 0.50),
        "membership_p90_ms": _ms(membership, 0.90),
        "error_rate": window.failed / window.data_ops,
    }


# ------------------------------------------------------------ per layer
def _function(target: str) -> str:
    """``"repro.net.codec:FrameDecoder.feed"`` -> ``"feed"``."""
    return target.partition(":")[2].rsplit(".", 1)[-1]


class _View:
    """Sums over one process's trace delta, by layer or by target."""

    def __init__(self, trace: Optional[Dict[str, Any]]) -> None:
        self.trace = trace or {"layer_of": {}, "calls": {}, "total": {},
                               "self": {}, "counts": {}}

    def _targets(self, layer: str, names: Tuple[str, ...] = ()) -> List[str]:
        return [target for target, owner in self.trace["layer_of"].items()
                if owner == layer and (not names or _function(target) in names)]

    def self_s(self, layer: str, *names: str) -> float:
        return sum(self.trace["self"][t] for t in self._targets(layer, names))

    def total_s(self, layer: str, *names: str) -> float:
        return sum(self.trace["total"][t] for t in self._targets(layer, names))

    def calls(self, layer: str, *names: str) -> int:
        return sum(self.trace["calls"][t] for t in self._targets(layer, names))

    def count(self, name: str) -> float:
        return self.trace["counts"].get(name, 0.0)


def per_layer(window: Window, client: Dict[str, Any],
              server: Optional[Dict[str, Any]], kts_delta: Dict[str, int],
              untraced_ops_per_s: float,
              extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``client`` is the trace delta of this process; ``server`` that of the
    server process when served (``None`` in process, where ``client`` holds
    every layer).  Times are normalised by the traced window's factor.
    """
    c, s = _View(client), _View(server if server is not None else client)
    ops, events = window.data_ops, window.events
    us = 1e6 / window.factor / ops
    ms_each = 1e3 / window.factor
    served = server is not None

    codec = ("encode_frame",), ("decode_frame", "feed", "feed_with_formats")
    request_self = c.self_s("net.client", "request")
    server_roots = s.count("root_seconds") if served else 0.0
    transport = max(request_self - server_roots, 0.0)
    # Coverage is the share of each process's busy time spent inside some
    # span.  The client is busy for the measured op time; the server only
    # while it serves a request, so its CPU time between the two snapshots
    # that bound the window is its busy time.  Served, the smaller counts.
    coverage = c.count("root_seconds") / window.raw_seconds
    if served:
        coverage = min(coverage, _ratio(server_roots, server["cpu_s"]))
    retrieves = s.count("ums.retrieves")
    routes = s.calls("dht.route")
    joins, leaves, fails = (s.calls("dht.network", name)
                            for name in ("join_peer", "leave_peer", "fail_peer"))
    metrics = {
        "api.session.self_us": c.self_s("api") * us,
        "net.client.request_us": c.total_s("net.client", "request") * us,
        "net.client.requests": c.calls("net.client", "request") / ops,
        "net.client.retries": c.count("client.retries") / ops,
        "net.client.bytes_per_request": _ratio(c.count("client.bytes"),
                                               c.calls("net.client", "request")),
        "net.codec.client_encode_us": c.self_s("net.codec", *codec[0]) * us if served else 0.0,
        "net.codec.client_decode_us": c.self_s("net.codec", *codec[1]) * us if served else 0.0,
        "net.codec.server_encode_us": s.self_s("net.codec", *codec[0]) * us if served else 0.0,
        "net.codec.server_decode_us": s.self_s("net.codec", *codec[1]) * us if served else 0.0,
        "net.codec.frames": ((c.calls("net.codec", "encode_frame")
                              + s.calls("net.codec", "encode_frame")) / ops
                             if served else 0.0),
        "net.server.dispatch_self_us": s.self_s("net.server") * us,
        "net.transport.us": transport * us,
        "core.ums.self_us": s.self_s("core.ums") * us,
        "core.ums.probes_per_retrieve": _ratio(s.count("ums.probes"), retrieves),
        "core.ums.current_per_probe": _ratio(s.count("ums.current"),
                                             s.count("ums.probes")),
        "core.kts.gen_ts_us": s.self_s("core.kts", "gen_ts", "gen_ts_many") * us,
        "core.kts.last_ts_us": s.self_s("core.kts", "last_ts", "last_ts_many") * us,
        "core.kts.direct_transfers_per_event": _ratio(
            kts_delta.get("direct_transfers", 0), events),
        "core.kts.indirect_inits_per_event": _ratio(
            kts_delta.get("indirect_initializations", 0), events),
        "core.replication.sync_ms_per_round": _ratio(
            s.total_s("core.replication") * ms_each, s.count("sync.rounds")),
        "core.replication.transfer_ratio": _ratio(s.count("sync.transfer_ratio"),
                                                  s.count("sync.rounds")),
        "dht.network.self_us": s.self_s("dht.network") * us,
        "dht.network.join_ms": _ratio(s.total_s("dht.network", "join_peer") * ms_each, joins),
        "dht.network.leave_ms": _ratio(s.total_s("dht.network", "leave_peer") * ms_each, leaves),
        "dht.network.fail_ms": _ratio(s.total_s("dht.network", "fail_peer") * ms_each, fails),
        "dht.route.self_us": s.self_s("dht.route") * us,
        "dht.route.routes": routes / ops,
        "dht.route.hops_per_route": _ratio(s.count("route.hops"), routes),
        "dht.route.retries_per_route": _ratio(s.count("route.retries"), routes),
        "dht.messages.records": s.calls("dht.messages", "record") / ops,
        "dht.messages.self_us": s.self_s("dht.messages") * us,
        "dht.hashing.evals": s.calls("dht.hashing") / ops,
        "dht.hashing.self_us": s.self_s("dht.hashing") * us,
        "dht.storage.self_us": s.self_s("dht.storage") * us,
        "dht.storage.calls": s.calls("dht.storage") / ops,
        "dht.storage.put_rejected_share": _ratio(s.count("storage.put_rejected"),
                                                 s.calls("dht.storage", "put")),
        "dht.storage.span_entries_per_event": _ratio(s.count("storage.span_entries"),
                                                     events),
        "trace.coverage": coverage,
        "trace.overhead": untraced_ops_per_s / (ops / window.normalised_seconds),
    }
    metrics.update(extras)
    return metrics


def with_units(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value": v, "unit": u}}`` in the result line's shape."""
    return {name: {"value": value, "unit": _UNITS[name]}
            for name, value in values.items()}

