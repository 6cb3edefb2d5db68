"""The correctness oracle: the integrity constraints every answer must meet.

It keeps a shadow of the last acknowledged write per key and checks two of
the paper's invariants on every answer the system gives:

* KTS timestamps rise strictly per key, across every acknowledged write;
* an answer flagged current carries exactly the shadow's data.

A write is acknowledged when at least one replica stored it.  A stale answer
that is honestly flagged not-current is no violation: under churn it counts
against ``current_rate`` only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["Oracle"]


class Oracle:
    """Shadow state plus counters of checked answers and violations."""

    def __init__(self) -> None:
        self.shadow: Dict[Any, Tuple[Any, int]] = {}
        self.violations: List[str] = []
        self.retrieves = 0
        self.current = 0

    def _note(self, message: str) -> None:
        """Keep the first violations' messages; ``failed`` counts them all."""
        if len(self.violations) < 20:
            self.violations.append(message)

    # -------------------------------------------------------------- writes
    def check_insert(self, key: Any, data: Any, result) -> bool:
        """Check one write's answer and advance the shadow; ``True`` when sound."""
        if result.replicas_written < 1:
            self._note(f"insert {key!r}: no replica stored the write")
            return False
        timestamp = result.timestamp
        value = getattr(timestamp, "value", None)
        if value is None or getattr(timestamp, "key", key) != key:
            self._note(f"insert {key!r}: answer carries no timestamp for the key")
            return False
        previous = self.shadow.get(key)
        self.shadow[key] = (data, value)
        if previous is not None and value <= previous[1]:
            self._note(f"insert {key!r}: timestamp {value} does not rise past "
                       f"{previous[1]}")
            return False
        return True

    def check_batch_insert(self, items: Sequence[Tuple[Any, Any]], result) -> bool:
        """Check a batch write: one sound answer per item, in order."""
        answers = list(result)
        if len(answers) != len(items):
            self._note(f"insert_many: {len(answers)} answers for {len(items)} items")
            return False
        sound = True
        for (key, data), answer in zip(items, answers):
            if answer.key != key:
                self._note(f"insert_many: answer for {answer.key!r} in the "
                           f"slot of {key!r}")
                sound = False
                continue
            sound = self.check_insert(key, data, answer) and sound
        return sound

    # --------------------------------------------------------------- reads
    def check_retrieve(self, key: Any, result) -> bool:
        """Check one CURRENT read; ``True`` when sound (stale-but-honest is sound)."""
        self.retrieves += 1
        if result.key != key:
            self._note(f"retrieve {key!r}: answer is for {result.key!r}")
            return False
        if not result.is_current:
            return True
        self.current += 1
        expected = self.shadow.get(key)
        if expected is None:
            self._note(f"retrieve {key!r}: flagged current for a key never written")
            return False
        if result.data != expected[0]:
            self._note(f"retrieve {key!r}: flagged current with {result.data!r}, "
                       f"last acknowledged write is {expected[0]!r}")
            return False
        stamp = getattr(result.timestamp, "value", None)
        if stamp is not None and stamp != expected[1]:
            self._note(f"retrieve {key!r}: flagged current at timestamp {stamp}, "
                       f"last acknowledged write has {expected[1]}")
            return False
        return True

    def check_batch_retrieve(self, keys: Sequence[Any], result) -> bool:
        """Check a batch read: one sound answer per key, in order."""
        answers = list(result)
        if len(answers) != len(keys):
            self._note(f"retrieve_many: {len(answers)} answers for {len(keys)} keys")
            return False
        sound = True
        for key, answer in zip(keys, answers):
            sound = self.check_retrieve(key, answer) and sound
        return sound

    def reset_counts(self) -> None:
        """Zero the read counters (the shadow and violations stay)."""
        self.retrieves = self.current = 0
