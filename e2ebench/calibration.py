"""Machine-speed yardstick interleaved with the timed window.

A fixed stdlib-only work unit (small objects, a dict, SHA-1 digests and
big-int arithmetic) is timed in short slices between blocks of operations.  Each
slice measures how fast the host runs plain Python *right now*; dividing
a raw timing by ``seconds_per_iteration / REFERENCE_SECONDS_PER_ITERATION``
turns it into reference-machine seconds, which removes most of the drift a
shared host adds to wall-clock numbers.

This module deliberately imports nothing from ``repro``: an optimisation of
the system under test must never move the yardstick.
"""

from __future__ import annotations

import hashlib
import time
from typing import List

__all__ = ["REFERENCE_SECONDS_PER_ITERATION", "SLICE_ITERATIONS", "Calibration"]

#: Seconds one iteration of :func:`_work` takes on the reference machine
#: (about what a 2-vCPU x86-64 VM with CPython 3.11.7 measured).  Normalised
#: timings read in that machine's seconds; only their ratios across runs
#: and commits matter.
REFERENCE_SECONDS_PER_ITERATION = 1.5e-6

#: Iterations in one slice: a few hundred microseconds of work.
SLICE_ITERATIONS = 250
#: Untimed iterations run first, so a slice starts with warm caches.
WARM_ITERATIONS = 50

_PRIME = (1 << 521) - 1


class _Cell:
    """A small slotted object, like the many the system under test allocates."""

    __slots__ = ("value", "link")

    def __init__(self, value: int, link: object) -> None:
        self.value = value
        self.link = link


def _read(cell: _Cell, offset: int) -> int:
    return cell.value + offset


def _work(iterations: int, seed: int) -> int:
    """The fixed work unit; returns a value so nothing is optimised away.

    Mostly interpreter work — small objects, a dict, calls, string keys —
    which is what the benchmarked code does, plus a SHA-1 digest folded into
    a big integer every eighth iteration.
    """
    table = {}
    recent = []
    accumulator = seed
    sha1 = hashlib.sha1
    for index in range(iterations):
        cell = _Cell(index, seed)
        table[index & 511] = (cell, index)
        entry = table.get((index * 7) & 511)
        if entry is not None:
            accumulator += _read(entry[0], index)
        recent.append(entry)
        if len(recent) > 32:
            recent.clear()
        accumulator ^= hash("k%d" % (index & 255)) & 0xFF
        if index & 7 == 0:
            digest = int.from_bytes(sha1(b"cal-%d" % (index + seed)).digest(), "big")
            accumulator = (accumulator * 31 + digest) % _PRIME
    return accumulator


class Calibration:
    """Slices of the yardstick taken over one run, in time order.

    Call :meth:`slice` between blocks of timed work; :meth:`factor_for_block`
    gives the speed factor of one block.  A factor above 1 means the host
    currently runs slower than the reference; a normalised time is
    ``raw / factor``.
    """

    def __init__(self, iterations: int = SLICE_ITERATIONS) -> None:
        self.iterations = iterations
        self.seconds: List[float] = []
        self._sink = 0

    def slice(self) -> float:
        """Run one slice; record and return its duration in seconds."""
        self._sink ^= _work(WARM_ITERATIONS, -1)
        start = time.perf_counter()
        self._sink ^= _work(self.iterations, len(self.seconds))
        elapsed = time.perf_counter() - start
        self.seconds.append(elapsed)
        return elapsed

    def factor_for_block(self, block: int) -> float:
        """The speed factor of the block between slices ``block`` and ``block + 1``.

        The mean of the two slices that bracket it: on a shared host the
        speed moves on the scale of one block, and wider windows tracked the
        workload worse (see README.md).
        """
        if not self.seconds:
            raise RuntimeError("no calibration slice was taken")
        bracket = self.seconds[block:block + 2] or self.seconds[-1:]
        per_iteration = sum(bracket) / len(bracket) / self.iterations
        return per_iteration / REFERENCE_SECONDS_PER_ITERATION

    @property
    def total_seconds(self) -> float:
        """Wall time spent inside calibration slices."""
        return sum(self.seconds)
