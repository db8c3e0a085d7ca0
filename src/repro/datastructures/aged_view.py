"""Bounded partial views with aged entries.

Content peers keep a *view* of at most ``Vgossip`` contacts, each entry
carrying an *age* counter ("the age of the entry since the moment it was
created", Section 4.2).  This module is the generic, object-per-entry form
of such a view, with the gossip merge rule of Algorithm 4 — collect both
views, drop duplicates keeping the youngest instance, keep the ``Vgossip``
most recent entries.  The protocol itself runs on the columnar form of the
same rules, :class:`repro.core.columns.ColumnarView`, which ages a whole
view with one clock increment instead of rebuilding it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Generic, Iterable, Iterator, List, Optional, Sequence, TypeVar

P = TypeVar("P")  # payload type attached to each contact (e.g. a content summary)


@dataclass(frozen=True, slots=True)
class AgedEntry(Generic[P]):
    """One view entry: a contact address, an age, and an optional payload."""

    contact: str
    age: int = 0
    payload: Optional[P] = None

    def aged(self, increment: int = 1) -> "AgedEntry[P]":
        """Return a copy with the age increased by ``increment``."""
        # Direct construction: dataclasses.replace() is measurably slower and
        # this runs once per view entry per gossip period.
        return AgedEntry(contact=self.contact, age=self.age + increment, payload=self.payload)

    def refreshed(self, payload: Optional[P] = None) -> "AgedEntry[P]":
        """Return a copy with age reset to zero and optionally a new payload."""
        return AgedEntry(
            contact=self.contact,
            age=0,
            payload=payload if payload is not None else self.payload,
        )


@dataclass(slots=True)
class AgedView(Generic[P]):
    """A bounded mapping of contact → :class:`AgedEntry`.

    Args:
        capacity: maximum number of entries (``Vgossip``); ``None`` means
            unbounded, which is how a directory index uses it.
    """

    capacity: Optional[int] = None
    _entries: Dict[str, AgedEntry[P]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {self.capacity}")

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, contact: str) -> bool:
        return contact in self._entries

    def __iter__(self) -> Iterator[AgedEntry[P]]:
        return iter(self._entries.values())

    def contacts(self) -> Sequence[str]:
        return tuple(self._entries)

    def entries(self) -> Sequence[AgedEntry[P]]:
        return tuple(self._entries.values())

    def get(self, contact: str) -> Optional[AgedEntry[P]]:
        return self._entries.get(contact)

    # -- mutation ----------------------------------------------------------------

    def put(self, entry: AgedEntry[P]) -> None:
        """Insert or replace the entry for ``entry.contact``, then trim to capacity."""
        self._entries[entry.contact] = entry
        self._trim()

    def refresh(self, contact: str, payload: Optional[P] = None) -> AgedEntry[P]:
        """Reset the age of ``contact`` to zero (creating the entry if absent)."""
        existing = self._entries.get(contact)
        if existing is None:
            entry: AgedEntry[P] = AgedEntry(contact=contact, age=0, payload=payload)
        else:
            entry = existing.refreshed(payload)
        self.put(entry)
        return entry

    def remove(self, contact: str) -> bool:
        """Remove ``contact``; returns whether it was present."""
        return self._entries.pop(contact, None) is not None

    def increment_ages(self, increment: int = 1) -> None:
        """Age every entry by ``increment`` (the per-``Tgossip`` tick)."""
        self._entries = {c: e.aged(increment) for c, e in self._entries.items()}

    def evict_older_than(self, age_limit: int) -> List[AgedEntry[P]]:
        """Remove and return every entry whose age strictly exceeds ``age_limit``."""
        evicted = [e for e in self._entries.values() if e.age > age_limit]
        for entry in evicted:
            del self._entries[entry.contact]
        return evicted

    def clear(self) -> None:
        self._entries.clear()

    # -- selection (Algorithm 4 helpers) -------------------------------------------

    def select_oldest(self) -> Optional[AgedEntry[P]]:
        """The contact with the largest age (gossip partner selection)."""
        if not self._entries:
            return None
        return max(self._entries.values(), key=lambda e: (e.age, e.contact))

    def select_youngest(self) -> Optional[AgedEntry[P]]:
        if not self._entries:
            return None
        return min(self._entries.values(), key=lambda e: (e.age, e.contact))

    def select_subset(
        self,
        size: int,
        rng: Optional[random.Random] = None,
        exclude: Iterable[str] = (),
    ) -> List[AgedEntry[P]]:
        """Random subset of at most ``size`` entries (``Lgossip`` selection)."""
        excluded = set(exclude)
        candidates = [e for e in self._entries.values() if e.contact not in excluded]
        if size >= len(candidates):
            return list(candidates)
        if rng is None:
            # Deterministic fallback: youngest entries first.
            return sorted(candidates, key=lambda e: (e.age, e.contact))[:size]
        return rng.sample(candidates, size)

    # -- merge (Algorithm 4: merge + select_recent) ----------------------------------

    def merge(self, incoming: Iterable[AgedEntry[P]], self_contact: Optional[str] = None) -> None:
        """Merge ``incoming`` entries into the view.

        Duplicates keep the instance with the smallest age; an entry for the
        view owner itself (``self_contact``) is never added; finally the view
        is trimmed to the ``capacity`` most recent entries.
        """
        for entry in incoming:
            if self_contact is not None and entry.contact == self_contact:
                continue
            existing = self._entries.get(entry.contact)
            if existing is None or entry.age < existing.age:
                self._entries[entry.contact] = entry
        self._trim()

    def _trim(self) -> None:
        if self.capacity is None or len(self._entries) <= self.capacity:
            return
        most_recent = sorted(self._entries.values(), key=lambda e: (e.age, e.contact))
        self._entries = {e.contact: e for e in most_recent[: self.capacity]}
