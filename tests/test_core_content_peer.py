"""Unit tests for content peers: storage, views, gossip (Alg. 4) and push (Alg. 5)."""

import random

import pytest

from repro.core.columns import SUMMARY_NUM_HASHES, ColumnarGossipMessage
from repro.core.config import FlowerConfig, GossipConfig
from repro.core.content_peer import ContentPeer
from repro.datastructures.bloom import BloomFilter, mask_for


@pytest.fixture
def config() -> FlowerConfig:
    return FlowerConfig(
        num_websites=2,
        active_websites=1,
        objects_per_website=20,
        num_localities=2,
        max_content_overlay_size=10,
        locality_bits=2,
        website_bits=10,
        gossip=GossipConfig(
            gossip_period_s=60.0, view_size=6, gossip_length=3, push_threshold=0.25,
            keepalive_period_s=60.0, dead_age=3,
        ),
    )


def make_peer(config: FlowerConfig, name: str = "c1", host: int = 0) -> ContentPeer:
    return ContentPeer(
        peer_id=name, host_id=host, website="site-000.example.org", locality=0, config=config
    )


def obj(i: int) -> str:
    return f"http://site-000.example.org/object/{i}"


def summary_of(config: FlowerConfig, *items: str) -> int:
    """Packed summary bits of a Bloom filter holding ``items``."""
    return BloomFilter.from_items(items, num_bits=config.summary_bits)._bits


def might_contain(config: FlowerConfig, bits: int, item: str) -> bool:
    mask = mask_for(config.summary_bits, SUMMARY_NUM_HASHES, item)
    return bits & mask == mask


class TestContentStorage:
    def test_store_and_has_object(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        assert peer.has_object(obj(1))
        assert peer.num_objects == 1

    def test_store_is_idempotent(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        peer.store_object(obj(1))
        assert peer.num_objects == 1

    def test_drop_object(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        peer.drop_object(obj(1))
        assert not peer.has_object(obj(1))
        peer.drop_object(obj(2))  # dropping an absent object is a no-op

    def test_content_summary_contains_stored_objects(self, config):
        peer = make_peer(config)
        for i in range(5):
            peer.store_object(obj(i))
        summary = peer.summary_bits()
        assert all(might_contain(config, summary, obj(i)) for i in range(5))
        assert summary == summary_of(config, *(obj(i) for i in range(5)))

    def test_content_summary_cache_invalidated_on_change(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        first = peer.summary_bits()
        assert first == peer.summary_bits()  # cached
        peer.store_object(obj(2))
        second = peer.summary_bits()
        assert second != first
        assert might_contain(config, second, obj(2))
        peer.drop_object(obj(1))
        assert peer.summary_bits() == summary_of(config, obj(2))

    def test_lru_capacity_evicts_and_reports_removal(self):
        config = FlowerConfig(
            num_websites=2, active_websites=1, objects_per_website=20, num_localities=2,
            locality_bits=2, website_bits=10, content_cache_capacity=2,
        )
        peer = make_peer(config)
        peer.store_object(obj(1))
        peer.store_object(obj(2))
        peer.store_object(obj(3))
        assert peer.num_objects == 2
        assert not peer.has_object(obj(1))


class TestView:
    def test_initialize_view_excludes_self(self, config):
        peer = make_peer(config, name="me")
        peer.initialize_view([("me", 0, None), ("other", 0, None)])
        assert "me" not in peer.view
        assert "other" in peer.view

    def test_view_respects_capacity(self, config):
        peer = make_peer(config)
        peer.initialize_view([(f"p{i}", i, None) for i in range(20)])
        assert len(peer.view) == config.gossip.view_size

    def test_increment_ages_also_ages_directory_entry(self, config):
        peer = make_peer(config)
        peer.note_directory("d0")
        peer.initialize_view([("p1", 0, None)])
        peer.increment_ages()
        assert peer.view.get("p1") == ("p1", 1, None)
        assert peer.directory_age == 1

    def test_note_directory_resets_age(self, config):
        peer = make_peer(config)
        peer.note_directory("d0")
        peer.increment_ages()
        peer.note_directory("d0")
        assert peer.directory_age == 0

    def test_forget_contact(self, config):
        peer = make_peer(config)
        peer.note_directory("d0")
        peer.initialize_view([("p1", 0, None)])
        peer.forget_contact("p1")
        assert "p1" not in peer.view
        peer.forget_contact("d0")
        assert peer.directory_peer_id is None


class TestLocalResolution:
    def test_candidates_ordered_by_freshness(self, config):
        peer = make_peer(config)
        summary = summary_of(config, obj(7))
        peer.initialize_view([("stale", 5, summary), ("fresh", 0, summary)])
        assert peer.resolve_locally(obj(7)) == ["fresh", "stale"]

    def test_entries_without_summaries_are_skipped(self, config):
        peer = make_peer(config)
        peer.initialize_view([("unknown", 0, None)])
        assert peer.resolve_locally(obj(1)) == []

    def test_non_matching_summaries_are_skipped(self, config):
        peer = make_peer(config)
        peer.initialize_view([("p", 0, summary_of(config, obj(1)))])
        assert peer.resolve_locally(obj(15)) == []


class TestGossip:
    def test_partner_is_oldest_view_entry(self, config):
        peer = make_peer(config)
        peer.initialize_view([("young", 0, None), ("old", 7, None)])
        assert peer.select_gossip_partner() == "old"

    def test_partner_none_when_view_empty(self, config):
        assert make_peer(config).select_gossip_partner() is None

    def test_gossip_message_contains_summary_and_subset(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        peer.initialize_view([(f"p{i}", i, None) for i in range(5)])
        message = peer.build_gossip_message(rng=random.Random(0))
        assert isinstance(message, ColumnarGossipMessage)
        assert message.sender == peer.peer_id
        assert message.num_entries == config.gossip.gossip_length
        assert might_contain(config, message.summary_bits, obj(1))

    def test_exchange_adds_partner_with_fresh_summary(self, config):
        alice = make_peer(config, "alice", 0)
        bob = make_peer(config, "bob", 1)
        alice.store_object(obj(1))
        bob.store_object(obj(2))
        message = alice.build_gossip_message()
        reply = bob.handle_gossip(message)
        alice.apply_gossip(reply)
        assert "alice" in bob.view
        assert "bob" in alice.view
        _, age, bits = alice.view.get("bob")
        assert age == 0
        assert might_contain(config, bits, obj(2))
        assert bob.gossip_received == 1

    def test_exchange_disseminates_third_party_entries(self, config):
        alice = make_peer(config, "alice")
        bob = make_peer(config, "bob")
        alice.initialize_view([("carol", 1, summary_of(config, obj(9)))])
        reply = bob.handle_gossip(alice.build_gossip_message())
        alice.apply_gossip(reply)
        assert "carol" in bob.view
        assert bob.resolve_locally(obj(9)) == ["carol"]

    def test_view_never_contains_self_after_gossip(self, config):
        alice = make_peer(config, "alice")
        bob = make_peer(config, "bob")
        bob.initialize_view([("alice", 2, None)])
        reply = bob.handle_gossip(alice.build_gossip_message())
        alice.apply_gossip(reply)
        assert "alice" not in alice.view


class TestPush:
    def test_needs_push_respects_threshold(self, config):
        peer = make_peer(config)
        assert not peer.needs_push()
        peer.store_object(obj(1))
        # one change over one object = 100% >= 25% threshold
        assert peer.needs_push()

    def test_threshold_is_relative_to_content_size(self, config):
        peer = make_peer(config)
        for i in range(8):
            peer.store_object(obj(i))
        peer.build_push()  # flush
        peer.store_object(obj(9))
        # 1 change / 9 objects ≈ 11% < 25%
        assert not peer.needs_push()
        peer.store_object(obj(10))
        peer.store_object(obj(11))
        assert peer.needs_push()

    def test_build_push_carries_delta_and_resets(self, config):
        peer = make_peer(config)
        peer.store_object(obj(1))
        peer.store_object(obj(2))
        peer.drop_object(obj(2))
        push = peer.build_push()
        assert push.sender == peer.peer_id
        assert obj(1) in push.added
        assert obj(2) in push.removed
        assert not peer.needs_push()
        assert peer.pushes_sent == 1
        assert peer.directory_age == 0

    def test_pending_change_fraction_empty_peer(self, config):
        assert make_peer(config).pending_change_fraction() == 0.0


class TestLifecycle:
    def test_fail_and_recover(self, config):
        peer = make_peer(config)
        peer.fail()
        assert not peer.alive
        peer.recover()
        assert peer.alive
