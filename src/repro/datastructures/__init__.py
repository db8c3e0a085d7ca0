"""Shared data structures: Bloom filters, aged partial views, LRU caches.

These are the building blocks the paper's directory and content peers rely
on: content/directory *summaries* are Bloom filters (Fan et al., "Summary
cache"), peer views are bounded lists of aged entries (the protocol keeps
them in the columnar form of :mod:`repro.core.columns`), and the optional
cache-replacement extension uses an LRU policy.
"""

from repro.datastructures.bloom import BloomFilter
from repro.datastructures.aged_view import AgedEntry, AgedView
from repro.datastructures.lru import LRUCache

__all__ = ["BloomFilter", "AgedEntry", "AgedView", "LRUCache"]
