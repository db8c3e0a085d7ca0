"""Circular identifier-space arithmetic.

DHT identifiers live on a ring of size ``2**m`` ("peer identifiers are chosen
from an identifier space S = [1 .. 2^m - 1] where m is the ID length in
bits", Section 3.1).  This module centralises the modular arithmetic every
other overlay component needs: clockwise distance, circular (numeric)
distance, interval membership and key hashing.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class IdSpace:
    """An ``m``-bit circular identifier space."""

    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 256:
            raise ValueError(f"bits must be in [1, 256], got {self.bits}")

    @property
    def size(self) -> int:
        return 1 << self.bits

    @property
    def max_id(self) -> int:
        return self.size - 1

    def contains(self, identifier: int) -> bool:
        return 0 <= identifier < self.size

    def normalize(self, identifier: int) -> int:
        return identifier % self.size

    def validate(self, identifier: int) -> int:
        if not self.contains(identifier):
            raise ValueError(f"identifier {identifier} outside {self.bits}-bit space")
        return identifier

    # -- hashing -----------------------------------------------------------

    def hash_key(self, key: str) -> int:
        """Map an arbitrary string to an identifier (SHA-1 truncated to ``bits``)."""
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        value = int.from_bytes(digest, "big")
        return value % self.size

    # -- circular arithmetic -------------------------------------------------

    def clockwise_distance(self, src: int, dst: int) -> int:
        """Distance travelled going clockwise (increasing IDs) from ``src`` to ``dst``."""
        return (dst - src) % self.size

    def circular_distance(self, a: int, b: int) -> int:
        """Numeric closeness on the ring: the shorter way around."""
        forward = (b - a) % self.size
        return min(forward, self.size - forward)

    def in_interval(
        self,
        value: int,
        start: int,
        end: int,
        inclusive_start: bool = False,
        inclusive_end: bool = False,
    ) -> bool:
        """True when ``value`` lies in the clockwise interval from ``start`` to ``end``.

        Handles wrap-around.  A zero-length open interval ``(x, x)`` is treated
        as the whole ring minus ``x``, which matches Chord's conventions.
        """
        value, start, end = self.normalize(value), self.normalize(start), self.normalize(end)
        if start == end:
            if inclusive_start or inclusive_end:
                return value == start
            return value != start
        if inclusive_start and value == start:
            return True
        if inclusive_end and value == end:
            return True
        if value == start or value == end:
            return False
        return self.clockwise_distance(start, value) < self.clockwise_distance(start, end)

    def closest_to(self, key: int, candidates: "list[int]") -> int:
        """Return the candidate numerically closest to ``key`` on the ring.

        Ties are broken clockwise (the candidate reachable by the smaller
        clockwise distance from the key), then by smaller identifier, so the
        result is deterministic.
        """
        if not candidates:
            raise ValueError("candidates must not be empty")
        return min(
            candidates,
            key=lambda c: (
                self.circular_distance(key, c),
                self.clockwise_distance(key, c),
                c,
            ),
        )

    def closest_in_sorted(self, key: int, ids: Sequence[int]) -> int:
        """:meth:`closest_to` over ascending, duplicate-free ``ids`` in O(log n).

        Only the two ring neighbours of the key's bisect point can minimise
        the circular distance: the first id clockwise from the key (which
        minimises the clockwise distance) and the first counter-clockwise
        (which minimises the other way round).  Comparing those two under
        :meth:`closest_to`'s full ``(distance, clockwise, id)`` key gives
        exactly its result, ties included.
        """
        if not ids:
            raise ValueError("candidates must not be empty")
        index = bisect_left(ids, key)
        after = ids[index % len(ids)]
        before = ids[index - 1]
        if after == before:
            return after
        size = self.size
        after_cw = (after - key) % size
        before_cw = (before - key) % size
        after_rank = (min(after_cw, size - after_cw), after_cw, after)
        before_rank = (min(before_cw, size - before_cw), before_cw, before)
        return after if after_rank < before_rank else before
