"""The benchmark's workloads and their seeded operation streams.

The deployment of every workload is fixed (overlay, population, ``|Hr| = 10``,
the cluster seed and the churn schedule); only the data operations take the
``--seed``.  The
whole stream is generated before any timing starts, with exact per-type
counts, so two runs with one seed do identical work and two commits run the
same operations.

Stream items are plain tuples:

* ``("retrieve", key)`` and ``("insert", key, data, replica)`` — single data
  ops; ``replica`` is ``None`` or the index of the ``Hr`` function whose
  holder is marked unreachable for that write (the paper's missed update);
* ``("retrieve_many", keys)`` and ``("insert_many", ((key, data), ...))``;
* ``("join",)``, ``("leave", u)`` and ``("fail", u)`` — membership events,
  where ``u`` in ``[0, 1)`` picks the departing peer among the live ones;
* ``("sync",)`` — one anti-entropy round over every key.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

__all__ = ["CLUSTER_SEED", "REPLICAS", "WORKLOADS", "WorkloadSpec",
           "generate_stream", "preload_items", "tiny"]

#: The deployment seed (``repro serve``'s default); never the ``--seed``.
CLUSTER_SEED = 2007
#: ``|Hr|``, the replication factor, for every workload.
REPLICAS = 10
#: Minimum samples of each single-op type per run (its p90 then has at
#: least 50 samples beyond it).
MIN_SAMPLES = 500
#: Minimum membership events per run on a churn workload.
MIN_EVENTS = 100

DATA_KINDS = ("retrieve", "insert", "retrieve_many", "insert_many")
MEMBERSHIP_KINDS = ("join", "leave", "fail")


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: a fixed deployment plus the shape of its op stream."""

    name: str
    why: str
    protocol: str
    peers: int
    keys: int
    served: bool = False
    zipf: float = 0.0
    read_fraction: float = 0.8
    batch_every: int = 0
    batch_size: int = 8
    event_every: int = 0
    unreachable_fraction: float = 0.0
    sync_every: int = 0
    #: Stream items per ``--seconds``; fixed, so the work never depends on
    #: how fast the machine happens to be.
    items_per_second: int = 100
    warmup_items: int = 200
    preload_batch: int = 100
    setups: int = 3
    check_samples: bool = True


WORKLOADS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec(
        name="served-chord-1k",
        why="repro serve over Chord, uniform keys, batches: transport, codec "
            "and server dispatch carry half of each op's CPU; wire work shows "
            "here only",
        protocol="chord", peers=1000, keys=1000, served=True,
        batch_every=10, items_per_second=350, warmup_items=300),
    WorkloadSpec(
        name="local-kademlia-10k",
        why="in-process Kademlia, Zipf(0.99) keys: traced routing dominates "
            "and there is no net layer, so wire work must read flat",
        protocol="kademlia", peers=10000, keys=500, zipf=0.99,
        items_per_second=350),
    WorkloadSpec(
        name="churn-can-200",
        why="CAN under join/leave/fail, missed updates and sync rounds: the "
            "only workload where UMS probes past the first replica and KTS "
            "counters move",
        protocol="can", peers=200, keys=1000, read_fraction=0.5,
        event_every=25, unreachable_fraction=0.1, sync_every=1000,
        items_per_second=255),
)}


def tiny(spec: WorkloadSpec) -> WorkloadSpec:
    """A seconds-long version of ``spec`` for smoke tests (same stream shape)."""
    return replace(spec, peers=min(spec.peers, 64), keys=min(spec.keys, 60),
                   items_per_second=30, warmup_items=20, setups=1,
                   check_samples=False,
                   sync_every=min(spec.sync_every, 100) if spec.sync_every else 0)


def key_name(index: int) -> str:
    """The name of key ``index``."""
    return f"key-{index:05d}"


def preload_items(spec: WorkloadSpec) -> List[Tuple[str, Dict[str, int]]]:
    """The bulk preload: every key once, before the timed window."""
    return [(key_name(index), {"w": -1 - index}) for index in range(spec.keys)]


class _KeyPicker:
    """Uniform or Zipf(s) key popularity over ``spec.keys`` keys."""

    def __init__(self, spec: WorkloadSpec, rng: random.Random) -> None:
        self.rng = rng
        self.keys = spec.keys
        self.cumulative: Optional[List[float]] = None
        if spec.zipf > 0:
            weights = [1.0 / (rank + 1) ** spec.zipf for rank in range(spec.keys)]
            self.cumulative = list(itertools.accumulate(weights))

    def one(self) -> str:
        if self.cumulative is None:
            return key_name(self.rng.randrange(self.keys))
        point = self.rng.random() * self.cumulative[-1]
        return key_name(min(bisect.bisect_left(self.cumulative, point),
                            self.keys - 1))

    def distinct(self, count: int) -> List[str]:
        chosen: List[str] = []
        while len(chosen) < count:
            key = self.one()
            if key not in chosen:
                chosen.append(key)
        return chosen


def _data_kinds(spec: WorkloadSpec, count: int, rng: random.Random) -> List[str]:
    """Exactly ``count`` data-op kinds in the workload's mix, shuffled."""
    batches = count // spec.batch_every if spec.batch_every else 0
    singles = count - batches
    inserts = round(singles * (1.0 - spec.read_fraction))
    kinds = ["insert"] * inserts + ["retrieve"] * (singles - inserts)
    rng.shuffle(kinds)
    batch_inserts = round(batches * (1.0 - spec.read_fraction))
    batch_kinds = (["insert_many"] * batch_inserts
                   + ["retrieve_many"] * (batches - batch_inserts))
    rng.shuffle(batch_kinds)
    if not batches:
        return kinds
    # Every ``batch_every``-th data op is a batch call.
    merged: List[str] = []
    singles_iter, batches_iter = iter(kinds), iter(batch_kinds)
    for position in range(count):
        if (position + 1) % spec.batch_every == 0:
            merged.append(next(batches_iter))
        else:
            merged.append(next(singles_iter))
    return merged


def generate_stream(spec: WorkloadSpec, seed: int, items: int
                    ) -> Tuple[List[tuple], List[tuple]]:
    """The ``(warm-up, window)`` item lists for ``spec`` under ``seed``.

    ``items`` counts window items (data ops plus membership events and sync
    rounds).  The same arguments always give the same lists.
    """
    rng = random.Random(f"{spec.name}/{seed}")
    # The churn schedule belongs to the fixed deployment, like the overlay:
    # every seed sees the same peers join, leave and fail, so the seed moves
    # the data ops only.
    churn_rng = random.Random(f"{spec.name}/churn/{CLUSTER_SEED}")
    picker = _KeyPicker(spec, rng)
    writes = itertools.count()

    def data_op(kind: str) -> tuple:
        if kind == "retrieve":
            return ("retrieve", picker.one())
        if kind == "insert":
            replica = None
            if spec.unreachable_fraction and rng.random() < spec.unreachable_fraction:
                replica = rng.randrange(REPLICAS)
            return ("insert", picker.one(), {"w": next(writes)}, replica)
        keys = picker.distinct(spec.batch_size)
        if kind == "retrieve_many":
            return ("retrieve_many", tuple(keys))
        return ("insert_many", tuple((key, {"w": next(writes)}) for key in keys))

    def build(count: int, churn: bool) -> List[tuple]:
        layout: List[Optional[str]] = []
        events = itertools.cycle(MEMBERSHIP_KINDS)
        for position in range(1, count + 1):
            if churn and spec.sync_every and position % spec.sync_every == 0:
                layout.append("sync")
            elif churn and spec.event_every and position % spec.event_every == 0:
                layout.append(next(events))
            else:
                layout.append(None)
        kinds = iter(_data_kinds(spec, layout.count(None), rng))
        stream: List[tuple] = []
        for slot in layout:
            if slot is None:
                stream.append(data_op(next(kinds)))
            elif slot == "join" or slot == "sync":
                stream.append((slot,))
            else:
                stream.append((slot, churn_rng.random()))
        return stream

    warmup = build(spec.warmup_items, churn=False)
    window = build(items, churn=True)
    if spec.check_samples:
        singles = [item[0] for item in window]
        for kind in ("retrieve", "insert"):
            if singles.count(kind) < MIN_SAMPLES:
                raise ValueError(f"{spec.name}: {singles.count(kind)} {kind} "
                                 f"samples, need {MIN_SAMPLES}")
        if spec.event_every:
            events = sum(1 for item in window if item[0] in MEMBERSHIP_KINDS)
            if events < MIN_EVENTS:
                raise ValueError(f"{spec.name}: {events} membership events, "
                                 f"need {MIN_EVENTS}")
    return warmup, window
