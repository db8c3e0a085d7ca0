"""The columnar protocol kernel: content-peer views and packed summaries.

Content peers keep their gossip view in a :class:`ColumnarView` (rows under an
epoch clock) and their content summary as the packed bits of a Bloom filter
(``repro.core.columns``).  Two layers of evidence that this layout implements
the protocol rules exactly:

* **end to end** — every standard-tier scenario reproduces its committed
  golden digest byte for byte, and the views and summaries of its final
  system obey the structural invariants below;
* **per structure** — property tests drive the view through random
  operation sequences in lockstep with :class:`_AgedViewModel`, a
  deliberately naive reference kept here (a dict of contact -> (age,
  summary), rebuilt on every ageing tick), and require equal observable
  state after every step; packed summaries are compared with
  :class:`~repro.datastructures.bloom.BloomFilter`.
"""

import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SUMMARY_NUM_HASHES, ColumnarView
from repro.core.config import FlowerConfig
from repro.core.content_peer import ContentPeer
from repro.datastructures.bloom import BloomFilter, mask_for
from repro.scenarios import golden
from repro.scenarios.library import scenario_names
from repro.session import Session

GOLDEN_DIR = Path(__file__).parent / "goldens"
NUM_BITS = 64

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# -- the reference model --------------------------------------------------------


class _AgedViewModel:
    """Algorithm 4's view rules, written as plainly as possible."""

    def __init__(self, capacity: Optional[int]) -> None:
        self.capacity = capacity
        self.entries: Dict[str, Tuple[int, Optional[int]]] = {}

    def columns(self) -> List[Tuple[str, int, Optional[int]]]:
        return [(c, age, bits) for c, (age, bits) in self.entries.items()]

    def _trim(self) -> None:
        if self.capacity is None or len(self.entries) <= self.capacity:
            return
        youngest = sorted(self.columns(), key=lambda col: (col[1], col[0]))
        self.entries = {c: (age, bits) for c, age, bits in youngest[: self.capacity]}

    def merge(self, incoming, self_contact=None) -> None:
        for contact, age, bits in incoming:
            if contact == self_contact:
                continue
            existing = self.entries.get(contact)
            if existing is None or age < existing[0]:
                self.entries[contact] = (age, bits)
        self._trim()

    def put_fresh(self, contact: str, bits: Optional[int]) -> None:
        self.entries[contact] = (0, bits)
        self._trim()

    def remove(self, contact: str) -> bool:
        return self.entries.pop(contact, None) is not None

    def increment_ages(self) -> None:
        self.entries = {c: (age + 1, bits) for c, (age, bits) in self.entries.items()}

    def select_oldest(self) -> Optional[str]:
        if not self.entries:
            return None
        return max(self.columns(), key=lambda col: (col[1], col[0]))[0]

    def select_subset(self, size: int, rng: Optional[random.Random]):
        candidates = self.columns()
        if size >= len(candidates):
            return candidates
        if rng is None:
            return sorted(candidates, key=lambda col: (col[1], col[0]))[:size]
        return rng.sample(candidates, size)

    def entries_maybe_containing(self, item: str) -> List[str]:
        """Contacts whose summary may hold ``item``, youngest first."""
        bloom = BloomFilter(NUM_BITS, SUMMARY_NUM_HASHES)
        hits = []
        for contact, age, bits in self.columns():
            if bits is None:
                continue
            bloom._bits = bits
            if bloom.might_contain(item):
                hits.append((age, contact))
        return [contact for _, contact in sorted(hits)]


def _summary(*items: str) -> int:
    return BloomFilter.from_items(items, num_bits=NUM_BITS)._bits


def _assert_view_invariants(view: ColumnarView, owner: Optional[str] = None) -> None:
    columns = view.export_columns()
    contacts = [contact for contact, _, _ in columns]
    assert len(contacts) == len(set(contacts)) == len(view)
    assert all(contact in view for contact in contacts)
    assert view.capacity is None or len(view) <= view.capacity
    assert owner not in view
    assert all(age >= 0 for _, age, _ in columns)


# -- end to end: every standard scenario, byte-identical -------------------------


@pytest.mark.parametrize("name", sorted(scenario_names(tier="standard")))
def test_kernel_reproduces_committed_golden_exactly(name):
    committed = golden.load_golden(name, GOLDEN_DIR)
    session = Session.from_spec(golden.golden_spec(name), seed=golden.GOLDEN_SEED)
    fresh = golden.result_digest(session.run(), scale=golden.golden_scale_for(name))
    assert fresh == committed, f"digest of {name!r} diverged from the committed golden"

    system = session.experiment.last_flower_system
    if system is None:  # a Squirrel-only scenario
        return
    for peer_id in system.alive_content_peer_ids():
        peer = system.content_peer(peer_id)
        _assert_view_invariants(peer.view, owner=peer.peer_id)
        rebuilt = BloomFilter.from_items(peer.objects, num_bits=system.config.summary_bits)
        assert peer.summary_bits() == rebuilt._bits


# -- property: the columnar view against the reference model ---------------------

contacts = st.sampled_from([f"p{i}" for i in range(16)])
view_ops = st.lists(
    st.one_of(
        st.tuples(st.just("merge"), st.lists(st.tuples(contacts, st.integers(0, 12)), max_size=8)),
        st.tuples(st.just("put"), contacts),
        st.tuples(st.just("age"), st.none()),
        st.tuples(st.just("remove"), contacts),
    ),
    max_size=40,
)


@PROPERTY_SETTINGS
@given(view_ops, st.one_of(st.none(), st.integers(1, 8)))
def test_columnar_view_mirrors_aged_view(ops, capacity):
    model = _AgedViewModel(capacity)
    view = ColumnarView(capacity)
    for op, arg in ops:
        if op == "merge":
            incoming = [(c, a, _summary(f"obj-{a}")) for c, a in arg]
            model.merge(incoming, self_contact="self")
            view.merge_columns(incoming, self_contact="self")
        elif op == "put":
            model.put_fresh(arg, _summary("fresh"))
            view.put_fresh(arg, _summary("fresh"))
        elif op == "age":
            model.increment_ages()
            view.increment_ages()
        elif op == "remove":
            assert model.remove(arg) == view.remove(arg)
        assert view.export_columns() == model.columns()
        assert view.select_oldest() == model.select_oldest()
        _assert_view_invariants(view, owner="self")
    for contact in [f"p{i}" for i in range(16)]:
        expected = model.entries.get(contact)
        got = view.get(contact)
        assert got == (None if expected is None else (contact, *expected))


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(contacts, st.integers(0, 12)), max_size=20),
    st.integers(1, 10),
    st.integers(0, 2**31),
    st.booleans(),
)
def test_columnar_subset_sampling_is_draw_identical(pairs, size, seed, seeded):
    incoming = [(c, a, _summary(f"obj-{a}")) for c, a in pairs]
    model = _AgedViewModel(30)
    model.merge(incoming)
    view = ColumnarView(30)
    view.merge_columns(incoming)
    rng_model = random.Random(seed) if seeded else None
    rng_view = random.Random(seed) if seeded else None
    assert view.select_subset_columns(size, rng=rng_view) == model.select_subset(
        size, rng_model
    )
    if seeded:
        assert rng_model.getstate() == rng_view.getstate()


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(contacts, st.integers(0, 12), st.booleans()), max_size=20),
    st.text(min_size=1, max_size=12),
)
def test_columnar_probe_matches_entries_maybe_containing(rows, item):
    incoming = []
    for index, (contact, age, holds_item) in enumerate(rows):
        if index % 4 == 3:
            incoming.append((contact, age, None))  # a directory-seeded entry
        elif holds_item:
            incoming.append((contact, age, _summary(f"obj-{index}", item)))
        else:
            incoming.append((contact, age, _summary(f"obj-{index}")))
    model = _AgedViewModel(30)
    model.merge(incoming)
    view = ColumnarView(30)
    view.merge_columns(incoming)
    mask = mask_for(NUM_BITS, SUMMARY_NUM_HASHES, item)
    assert view.probe(mask) == model.entries_maybe_containing(item)


# -- property: packed summaries against Bloom filters ----------------------------

object_lists = st.lists(st.integers(0, 40), max_size=60)


def _content_peer(config: FlowerConfig) -> ContentPeer:
    return ContentPeer(peer_id="c@1", host_id=1, website="w", locality=0, config=config)


@PROPERTY_SETTINGS
@given(object_lists, object_lists, st.one_of(st.none(), st.integers(1, 8)))
def test_packed_summary_tracks_bloom_filter(stored, dropped, cache_capacity):
    config = FlowerConfig(content_cache_capacity=cache_capacity)
    peer = _content_peer(config)
    for rank in stored:
        peer.store_object(f"http://site-000.example.org/object/{rank}")
    for rank in dropped:
        peer.drop_object(f"http://site-000.example.org/object/{rank}")
    rebuilt = BloomFilter.from_items(peer.objects, num_bits=config.summary_bits)
    assert peer.summary_bits() == rebuilt._bits


@settings(max_examples=30, deadline=None, derandomize=True)
@given(object_lists)
def test_packed_summary_incremental_add_is_bit_identical(stored):
    config = FlowerConfig()
    peer = _content_peer(config)
    for rank in stored:
        peer.store_object(f"http://site-000.example.org/object/{rank}")
        # the incrementally maintained mask must equal a fresh rebuild at
        # every step, not just at the end
        fresh = 0
        for object_id in peer.objects:
            fresh |= mask_for(config.summary_bits, SUMMARY_NUM_HASHES, object_id)
        assert peer.summary_bits() == fresh
