"""Columnar protocol state of the content overlays.

Content peers keep their gossip view and their own content summary in
columns rather than in per-entry objects: at paper scale, rebuilding one
entry object per view slot on every ageing tick would dominate the run.

* :class:`ColumnarView` — a peer view as rows of ``[negated_stamp, contact,
  packed_summary]`` under an epoch clock: ageing the whole view is one
  integer increment, a gossip merge is a batched pass over the message
  columns, and a query probe is one precomputed Bloom mask compared against
  the packed summaries.
* :class:`ColumnarGossipMessage` — one gossip exchange: the sender's packed
  summary plus a subset of its view as ``(contact, age, bits)`` columns.

Invariants the digests depend on:

* row order is dict insertion order — replacing an entry keeps its
  position, new entries append, trims rebuild in ``(age, contact)`` order —
  so subset sampling sees its candidates in a fixed order;
* ``rng.sample`` consumes a draw sequence that depends only on the
  candidate *count*;
* ``(age, contact)`` orderings break every tie;
* packed summaries are the integers a
  :class:`~repro.datastructures.bloom.BloomFilter` of the same objects
  holds (masks come from the same memoised table), and Python ints are
  immutable, so a summary handed out in a message is a snapshot.

``tests/test_kernel_equivalence.py`` checks the view against a small
reference model of these rules.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

__all__ = [
    "SUMMARY_NUM_HASHES",
    "ViewColumn",
    "ColumnarView",
    "ColumnarGossipMessage",
]

#: Hash count of the packed content summaries: the default of
#: ``BloomFilter.from_items``, which also builds the directory summaries, so
#: a packed summary holds the same bits as a filter of the same objects.
SUMMARY_NUM_HASHES = 4

#: One materialised view column: ``(contact, age, packed_summary_or_None)``.
#: Ages are concretised when a column leaves its view (gossip subsets, view
#: seeding) because sender and receiver run different epoch clocks.
ViewColumn = Tuple[str, int, Optional[int]]


class ColumnarView:
    """A bounded peer view stored as sortable rows under an epoch clock.

    An entry's age is ``clock - stamp``, so the periodic "age everything"
    pass is a single increment of :attr:`clock`.  Algorithm 4's merge rule
    applies: duplicates keep the youngest instance, the owner never enters
    its own view, and the view keeps the ``capacity`` most recent entries.

    Each row is a *mutable* ``[negated_stamp, contact, payload]`` list shared
    between the ordered row list and the contact index, so in-place updates
    never touch the index, list comparison sorts rows by exactly the
    ``(age, contact)`` trim/tie-break key at C speed (contacts are unique, so
    a comparison never reaches the payload element), and a capacity trim is a
    bare ``list.sort`` plus one truncation.
    """

    __slots__ = ("capacity", "clock", "_rows", "_pos")

    def __init__(self, capacity: Optional[int]) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self.clock = 0
        #: rows in view order; row = [negated_stamp, contact, payload]
        self._rows: List[list] = []
        #: contact -> its row object (NOT its position, which sorts shift)
        self._pos: Dict[str, list] = {}

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, contact: str) -> bool:
        return contact in self._pos

    def get(self, contact: str) -> Optional[ViewColumn]:
        """``(contact, age, packed_summary)`` of one entry, or ``None``."""
        row = self._pos.get(contact)
        if row is None:
            return None
        return (contact, self.clock + row[0], row[2])

    def export_columns(self) -> List[ViewColumn]:
        """Every entry as ``(contact, age, packed_summary)``, in view order."""
        clock = self.clock
        return [(row[1], clock + row[0], row[2]) for row in self._rows]

    # -- mutation ------------------------------------------------------------

    def put_fresh(self, contact: str, payload: Optional[int]) -> None:
        """Write an age-0 entry (the ``viewEntry`` step of Algorithm 4)."""
        row = self._pos.get(contact)
        if row is not None:
            row[0] = -self.clock
            row[2] = payload
            return
        row = [-self.clock, contact, payload]
        self._pos[contact] = row
        self._rows.append(row)
        self._trim()

    def remove(self, contact: str) -> bool:
        row = self._pos.pop(contact, None)
        if row is None:
            return False
        self._rows.remove(row)
        return True

    def increment_ages(self, increment: int = 1) -> None:
        """Age every entry: one clock tick instead of a per-entry rebuild."""
        self.clock += increment

    def merge_columns(
        self, incoming: Iterable[ViewColumn], self_contact: Optional[str] = None
    ) -> None:
        """Algorithm 4's merge as one pass over the message columns.

        Duplicates keep the younger instance (a strictly smaller age wins),
        the owner's own entry is skipped, then the view trims to the
        ``capacity`` most recent entries.
        """
        clock = self.clock
        pos = self._pos
        rows = self._rows
        for contact, age, payload in incoming:
            if contact == self_contact:
                continue
            negated = age - clock  # == -(clock - age), the incoming stamp
            row = pos.get(contact)
            if row is None:
                row = [negated, contact, payload]
                pos[contact] = row
                rows.append(row)
            elif negated < row[0]:
                row[0] = negated
                row[2] = payload
        self._trim()

    def _trim(self) -> None:
        capacity = self.capacity
        rows = self._rows
        if capacity is None or len(rows) <= capacity:
            return
        # List comparison orders rows by (age, contact) ascending: keep the
        # youngest.  Rows are shared with ``_pos``, so only the evicted tail
        # needs index maintenance.
        rows.sort()
        pos = self._pos
        for row in rows[capacity:]:
            del pos[row[1]]
        del rows[capacity:]

    # -- selection -----------------------------------------------------------

    def select_oldest(self) -> Optional[str]:
        """Contact with the largest ``(age, contact)`` — partner selection."""
        rows = self._rows
        if not rows:
            return None
        return max(rows)[1]

    def select_subset_columns(
        self, size: int, rng: Optional[random.Random] = None
    ) -> List[ViewColumn]:
        """At most ``size`` columns (``Lgossip``), drawn with ``rng.sample``.

        Without an ``rng`` the ``size`` youngest entries are taken instead.
        """
        clock = self.clock
        candidates = self._rows
        if size < len(candidates) and rng is not None:
            # ``rng.sample`` consumes randomness as a function of the candidate
            # count alone, so sampling the row objects draws the very same view
            # positions as sampling materialised columns — the columns that end
            # up unselected are never built.
            candidates = rng.sample(candidates, size)
        selected = [(row[1], clock + row[0], row[2]) for row in candidates]
        if size >= len(selected) or rng is not None:
            return selected
        selected.sort(key=lambda column: (column[1], column[0]))
        return selected[:size]

    # -- query probing ---------------------------------------------------------

    def probe(self, mask: int) -> List[str]:
        """Contacts whose packed summary matches ``mask``, youngest first.

        One batched pass: the precomputed Bloom mask is AND-compared against
        the payload of every row; absent payloads (directory-seeded entries)
        never match because every mask has at least one bit set.
        """
        hits: List[Tuple[int, str]] = []
        append = hits.append
        clock = self.clock
        for negated, contact, payload in self._rows:
            if payload is not None and payload & mask == mask:
                append((clock + negated, contact))
        hits.sort()
        return [contact for _, contact in hits]


class ColumnarGossipMessage(NamedTuple):
    """A gossip exchange in column form: packed summary + view columns.

    A NamedTuple rather than a frozen dataclass: construction happens once
    per gossip exchange, and ``tuple.__new__`` is much cheaper than the
    ``object.__setattr__`` dance frozen dataclasses generate.
    """

    sender: str
    summary_bits: int
    view_subset: Tuple[ViewColumn, ...]

    @property
    def num_entries(self) -> int:
        return len(self.view_subset)
