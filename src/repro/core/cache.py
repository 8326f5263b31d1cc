"""Bounded LRU caching for hot repair state.

A long-lived repair service keeps per-``(u, s, k)`` sampling state warm
— the dense row-CDF tables are ``O(n_Q²)`` each, so an unbounded cache
over a large design would quietly eat the worker's memory.
:class:`LRUCache` is the shared bound: capacity-limited, thread-safe,
with the hit/miss/eviction accounting the ``/stats`` endpoint reports.
It lives in ``core`` because :class:`~repro.core.plan.FeaturePlan`
memoises its densified sparse CDF tables in one too, and ``core`` never
imports :mod:`repro.serve`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..exceptions import ValidationError

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """A thread-safe, capacity-bounded least-recently-used mapping.

    ``get_or_create(key, factory)`` is the serving-loop primitive: a hit
    refreshes the entry's recency and returns it; a miss builds the
    value with ``factory()``, stores it, and evicts the least recently
    used entry once ``capacity`` is exceeded.  The factory runs while
    the cache lock is held, so concurrent requests for the *same* cold
    key build it exactly once (cold misses serialise; hits only contend
    for the lock's duration).
    """

    def __init__(self, capacity: int) -> None:
        if not isinstance(capacity, int) or capacity < 1:
            raise ValidationError(
                f"cache capacity must be a positive int, got {capacity!r}")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_create(self, key, factory):
        """The cached value for ``key``, building it on a miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1
            value = factory()
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return value

    def get(self, key, default=None):
        """Peek without building; a hit still refreshes recency."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list:
        """Current keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus occupancy, for ``/stats``."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "size": len(self._entries),
                    "capacity": self.capacity}
