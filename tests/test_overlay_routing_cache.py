"""Cached sorted routing tables and the bisect lookup behind every D-ring hop.

Each Chord/Pastry node caches its known node ids as a sorted list and answers
``local_lookup`` / ``conditional_local_lookup`` with
:meth:`IdSpace.closest_in_sorted`.  These tests pin the two halves of that
design: the bisect lookup equals :meth:`IdSpace.closest_to` (including its
tie-breaks), and every routing-state write drops the cache, so lookups always
equal an uncached reference computed from ``known_nodes()``.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dring import DRing
from repro.core.keys import KeyScheme
from repro.overlay.chord import ChordRing
from repro.overlay.idspace import IdSpace
from repro.overlay.pastry import PastryNode, PastryRing

BITS = 10


# -- closest_in_sorted == closest_to ---------------------------------------------


@st.composite
def keys_and_ids(draw):
    bits = draw(st.integers(1, 24))
    size = 1 << bits
    ids = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=24, unique=True))
    key = draw(st.integers(0, size - 1))
    return bits, key, sorted(ids)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(keys_and_ids())
@example((8, 64, [0, 128]))  # key exactly half way between two candidates
@example((8, 0, [128]))  # a single candidate exactly half a ring away
@example((8, 0, [64, 128, 192]))  # 64 and 192 tie on distance; clockwise wins
@example((1, 0, [1]))  # the 1-bit ring: the only other id is half a ring away
@example((2, 0, [1, 3]))
@example((8, 200, [3]))
def test_closest_in_sorted_matches_closest_to(case):
    bits, key, ids = case
    space = IdSpace(bits)
    assert space.closest_in_sorted(key, ids) == space.closest_to(key, ids)


def test_closest_in_sorted_rejects_no_candidates():
    with pytest.raises(ValueError):
        IdSpace(8).closest_in_sorted(1, [])


# -- cache invalidation ------------------------------------------------------------


def _same_website_half(node_id):
    return node_id % 2 == 0


def _reference_lookup(node, key, known):
    """``local_lookup`` recomputed without the cache or the bisect."""
    space = node.idspace
    if isinstance(node, PastryNode):
        own_prefix = node.shared_prefix_length(key)
        better = [
            n for n in known if n != node.node_id and node._prefix_length(n, key) > own_prefix
        ]
        best = space.closest_to(key, better or known)
        if space.circular_distance(key, best) > space.circular_distance(key, node.node_id):
            return node.node_id
        return best
    return space.closest_to(key, known)


def _assert_lookups_uncached(ring):
    """Every node's lookups equal a reference recomputed from known_nodes().

    Each call leaves every cache warm, so a write made between two calls is
    caught if it fails to drop the cache.
    """
    space = ring.idspace
    keys = range(0, space.size, 13)
    for node_id in ring.live_ids():
        node = ring.node(node_id)
        known = sorted(node.known_nodes())
        matching = [n for n in known if _same_website_half(n)]
        for key in keys:
            assert node.local_lookup(key) == _reference_lookup(node, key, known)
            expected = space.closest_to(key, matching) if matching else None
            assert node.conditional_local_lookup(key, _same_website_half) == expected
        assert node.sorted_known_nodes() == known


def _chord_ring():
    rng = random.Random(7)
    return ChordRing.build(IdSpace(BITS), rng.sample(range(1 << BITS), 14))


class TestChordRoutingCache:
    def test_forget(self):
        ring = _chord_ring()
        _assert_lookups_uncached(ring)
        for node_id in ring.live_ids()[:4]:
            node = ring.node(node_id)
            node.forget(node.successors[0])
        _assert_lookups_uncached(ring)

    def test_remember(self):
        ring = _chord_ring()
        _assert_lookups_uncached(ring)
        outsider = next(i for i in range(1 << BITS) if i not in ring.live_ids())
        for node_id in ring.live_ids():
            ring.node(node_id).remember(outsider)
        _assert_lookups_uncached(ring)

    def test_join(self):
        ring = _chord_ring()
        _assert_lookups_uncached(ring)
        ring.join(next(i for i in range(1 << BITS) if i not in ring.live_ids()))
        _assert_lookups_uncached(ring)

    def test_leave(self):
        ring = _chord_ring()
        _assert_lookups_uncached(ring)
        ring.leave(ring.live_ids()[3])
        _assert_lookups_uncached(ring)

    def test_fail_then_stabilize(self):
        ring = _chord_ring()
        _assert_lookups_uncached(ring)
        failed = ring.live_ids()[5]
        ring.fail(failed)
        _assert_lookups_uncached(ring)  # survivors still know the failed node
        ring.stabilize()
        _assert_lookups_uncached(ring)
        assert all(failed not in ring.node(n).sorted_known_nodes() for n in ring.live_ids())


class TestPastryRoutingCache:
    def _ring(self):
        rng = random.Random(11)
        return PastryRing.build(IdSpace(BITS), rng.sample(range(1 << BITS), 14), digit_bits=2)

    def test_forget(self):
        ring = self._ring()
        _assert_lookups_uncached(ring)
        for node_id in ring.live_ids()[:4]:
            node = ring.node(node_id)
            node.forget(node.leaf_set[0])
        _assert_lookups_uncached(ring)

    def test_join_leave_and_fail(self):
        ring = self._ring()
        _assert_lookups_uncached(ring)
        ring.join(next(i for i in range(1 << BITS) if i not in ring.live_ids()))
        _assert_lookups_uncached(ring)
        ring.leave(ring.live_ids()[2])
        _assert_lookups_uncached(ring)
        ring.fail(ring.live_ids()[4])
        ring.stabilize()
        _assert_lookups_uncached(ring)


# -- a pinned D-ring route ---------------------------------------------------------


def test_dring_route_path_is_pinned():
    """Algorithm 2 over 40 websites x 6 localities takes exactly these hops."""
    ring = DRing(KeyScheme(website_bits=13, locality_bits=3))
    sites = [f"http://site-{i:03d}.example.org" for i in range(40)]
    ring.ring.auto_stabilize = False  # one stabilisation after all joins
    for website in sites:
        for locality in range(6):
            ring.register_directory(website, locality, f"d({website},{locality})")
    ring.ring.auto_stabilize = True
    ring.ring.stabilize()
    start = ring.placement_for(sites[0], 0).node_id
    route = ring.route_query(sites[26], 5, start_node_id=start)
    assert route.path == [3608, 36496, 40712, 42336, 42568, 42572, 42573]

    # Without d(ws, 5) the constrained lookup keeps the query on the website.
    ring.remove_directory(sites[26], 5, failed=True)
    placement, route = ring.resolve_directory(sites[26], 5, start_node_id=start)
    assert route.path == [3608, 36496, 40712, 42336, 42568, 42572]
    assert (placement.website, placement.locality) == (sites[26], 4)
