"""Small shared caching utilities.

The background-power templates in :mod:`repro.soc.chip`, the runner's
chips and the service's in-flight lock table need the same bookkeeping --
keyed get-or-compute, hit/miss/eviction counters, explicit clearing and an
LRU size bound -- so it lives here once.

Sharing contract: a cached value is served to *every* caller, so an
ndarray handed to :meth:`LRUCache.get_or_compute`'s ``compute`` must be
frozen (``array.flags.writeable = False``) before it is returned -- one
caller mutating a served array would silently corrupt every other
caller's "cached" result.  The CACHE001 scan in
``tests/test_code_policy.py`` keeps ``get_or_compute`` to the known call
sites and bans re-thawing an array anywhere in the library.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, TypeVar, Union

Value = TypeVar("Value")


class LRUCache:
    """A keyed get-or-compute cache with LRU eviction and counters.

    ``max_entries`` may be an int or a zero-argument callable returning
    one; the callable form lets callers expose the bound as a module
    constant that tests can monkeypatch.

    Thread-safe: bookkeeping (lookup, insertion, LRU reordering,
    counters) happens under a lock, so concurrent service threads cannot
    corrupt the ``OrderedDict``.  ``compute`` runs *outside* the lock --
    it may be a whole background computation -- so two threads missing the same
    key may both compute; the first insertion wins and the duplicate is
    discarded, which is safe because cached values are immutable by the
    sharing contract above.
    """

    def __init__(self, max_entries: Union[int, Callable[[], int]]) -> None:
        self._max_entries = max_entries
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._counters = {"hits": 0, "misses": 0, "evictions": 0}
        self._lock = threading.RLock()

    def _bound(self) -> int:
        bound = self._max_entries() if callable(self._max_entries) else self._max_entries
        if bound <= 0:
            raise ValueError("the cache size bound must be positive")
        return bound

    def get_or_compute(self, key: Hashable, compute: Callable[[], Value]) -> Value:
        """The cached value for ``key``, computing (and retaining) it on a miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._counters["misses"] += 1
            else:
                self._counters["hits"] += 1
                self._entries.move_to_end(key)
                return value
        value = compute()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # A concurrent thread computed it first; serve that copy
                # so every caller shares one (frozen) value.
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = value
            bound = self._bound()
            while len(self._entries) > bound:
                self._entries.popitem(last=False)
                self._counters["evictions"] += 1
        return value

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._counters.update(hits=0, misses=0, evictions=0)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the current entry count."""
        with self._lock:
            stats = dict(self._counters)
            stats["entries"] = len(self._entries)
            return stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
