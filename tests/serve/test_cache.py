"""Tests for the serving tier's bounded LRU cache."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ValidationError
from repro.core.cache import LRUCache


class TestBasics:
    def test_get_or_create_builds_once(self):
        cache = LRUCache(4)
        calls = []
        for _ in range(3):
            value = cache.get_or_create("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1

    def test_get_without_factory(self):
        cache = LRUCache(2)
        assert cache.get("absent") is None
        assert cache.get("absent", "fallback") == "fallback"
        cache.get_or_create("k", lambda: 7)
        assert cache.get("k") == 7

    def test_len_and_contains(self):
        cache = LRUCache(3)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        assert len(cache) == 2
        assert "a" in cache and "c" not in cache

    def test_clear(self):
        cache = LRUCache(3)
        cache.get_or_create("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0


class TestEviction:
    def test_lru_entry_evicted_at_capacity(self):
        cache = LRUCache(2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        cache.get_or_create("c", lambda: 3)  # evicts "a"
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_hit_refreshes_recency(self):
        cache = LRUCache(2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        cache.get_or_create("a", lambda: 0)  # hit: "b" is now LRU
        cache.get_or_create("c", lambda: 3)  # evicts "b", not "a"
        assert "a" in cache and "b" not in cache

    def test_keys_ordered_lru_first(self):
        cache = LRUCache(3)
        for key in ("a", "b", "c"):
            cache.get_or_create(key, lambda: 0)
        cache.get("a")
        assert cache.keys() == ["b", "c", "a"]

    def test_evicted_key_rebuilds(self):
        cache = LRUCache(1)
        cache.get_or_create("a", lambda: "first")
        cache.get_or_create("b", lambda: "other")
        assert cache.get_or_create("a", lambda: "rebuilt") == "rebuilt"


class TestStats:
    def test_counters(self):
        cache = LRUCache(2)
        cache.get_or_create("a", lambda: 1)   # miss
        cache.get_or_create("a", lambda: 1)   # hit
        cache.get_or_create("b", lambda: 2)   # miss
        cache.get_or_create("c", lambda: 3)   # miss + eviction
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 3, "evictions": 1,
                         "size": 2, "capacity": 2}

    def test_get_counts_misses(self):
        cache = LRUCache(2)
        cache.get("nope")
        assert cache.stats()["misses"] == 1


class TestConcurrency:
    def test_parallel_get_or_create_is_consistent(self):
        cache = LRUCache(8)
        built = []

        def factory(key):
            built.append(key)
            return key * 2

        def worker():
            for _ in range(200):
                for key in range(8):
                    assert cache.get_or_create(
                        key, lambda k=key: factory(k)) == key * 2

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Capacity 8 holds all 8 keys: each built exactly once.
        assert sorted(built) == list(range(8))
        stats = cache.stats()
        assert stats["misses"] == 8
        assert stats["evictions"] == 0


class TestValidation:
    @pytest.mark.parametrize("capacity", [0, -1, 2.5, "big", None])
    def test_bad_capacity_rejected(self, capacity):
        with pytest.raises(ValidationError, match="capacity"):
            LRUCache(capacity)
