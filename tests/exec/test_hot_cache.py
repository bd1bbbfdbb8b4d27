"""Unit tests for the in-memory hot tier (:class:`repro.exec.cache.HotCache`).

The service's throughput on repeat traffic rides on the hot tier
holding the working set, so the LRU's bounds, eviction order, and stats
must be exactly right — these tests pin them down without any service
in the loop.
"""

from __future__ import annotations

import threading

import pytest

from repro.exec.cache import HotCache


def _key(i: int) -> str:
    return f"{i:02d}" * 32


# ----------------------------------------------------------------------
# bounds + eviction
# ----------------------------------------------------------------------
def test_entry_bound_evicts_strict_lru():
    hot = HotCache(max_entries=3, max_bytes=1 << 20)
    for i in range(3):
        assert hot.put(_key(i), b"x" * 8)
    hot.put(_key(3), b"x" * 8)  # evicts key 0, the least recent
    assert hot.get(_key(0)) is None
    assert all(hot.get(_key(i)) is not None for i in (1, 2, 3))
    assert len(hot) == 3
    assert hot.stats.evictions == 1


def test_get_refreshes_recency():
    hot = HotCache(max_entries=3, max_bytes=1 << 20)
    for i in range(3):
        hot.put(_key(i), b"x")
    hot.get(_key(0))  # 0 is now the most recent; 1 is LRU
    hot.put(_key(3), b"x")
    assert hot.get(_key(1)) is None
    assert hot.get(_key(0)) == b"x"


def test_byte_bound_evicts_until_it_holds():
    hot = HotCache(max_entries=100, max_bytes=100)
    for i in range(4):
        hot.put(_key(i), b"x" * 40)  # 160 bytes demanded, 100 allowed
    assert hot.as_dict()["payload_bytes"] <= 100
    assert len(hot) == 2  # two 40-byte entries fit
    assert hot.get(_key(3)) is not None  # the newest survives
    assert hot.stats.evictions == 2


def test_oversized_payload_rejected_not_thrashed():
    hot = HotCache(max_entries=4, max_bytes=64)
    hot.put(_key(0), b"x" * 10)
    assert hot.put(_key(1), b"x" * 65) is False
    assert hot.stats.oversized == 1
    assert hot.stats.evictions == 0
    assert hot.get(_key(0)) == b"x" * 10  # resident entries untouched


def test_reinsert_refreshes_value_and_byte_accounting():
    hot = HotCache(max_entries=4, max_bytes=1 << 20)
    hot.put(_key(0), b"x" * 100)
    hot.put(_key(0), b"y" * 7)
    assert hot.get(_key(0)) == b"y" * 7
    assert len(hot) == 1
    assert hot.as_dict()["payload_bytes"] == 7


def test_bounds_must_be_positive():
    with pytest.raises(ValueError):
        HotCache(max_entries=0)
    with pytest.raises(ValueError):
        HotCache(max_bytes=0)


# ----------------------------------------------------------------------
# stats + introspection
# ----------------------------------------------------------------------
def test_stats_counters_and_hit_rate():
    hot = HotCache(max_entries=8, max_bytes=1 << 20)
    assert hot.get(_key(0)) is None
    hot.put(_key(0), b"x")
    assert hot.get(_key(0)) == b"x"
    assert hot.get(_key(0)) == b"x"
    stats = hot.stats
    assert (stats.hits, stats.misses, stats.stores) == (2, 1, 1)
    assert stats.lookups == 3
    assert stats.hit_rate == pytest.approx(2 / 3)
    snapshot = hot.as_dict()
    assert snapshot["entries"] == 1
    assert snapshot["payload_bytes"] == 1
    assert snapshot["hits"] == 2 and snapshot["hit_rate"] > 0


def test_peek_touches_neither_stats_nor_recency():
    hot = HotCache(max_entries=2, max_bytes=1 << 20)
    hot.put(_key(0), b"x")
    hot.put(_key(1), b"x")
    assert hot.peek(_key(0)) is True
    assert hot.peek(_key(9)) is False
    assert hot.stats.lookups == 0
    hot.put(_key(2), b"x")  # peek must not have saved key 0 from LRU
    assert hot.peek(_key(0)) is False


def test_clear_resets_occupancy_but_keeps_history():
    hot = HotCache(max_entries=8, max_bytes=1 << 20)
    for i in range(3):
        hot.put(_key(i), b"x" * 5)
    assert hot.clear() == 3
    assert len(hot) == 0 and hot.as_dict()["payload_bytes"] == 0
    assert hot.stats.stores == 3  # counters are lifetime, not occupancy


def test_concurrent_put_get_is_safe_and_bounded():
    hot = HotCache(max_entries=16, max_bytes=1 << 20)

    def worker(base: int) -> None:
        for i in range(200):
            key = _key((base * 200 + i) % 50)
            hot.put(key, b"x" * 16)
            hot.get(key)

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert not any(t.is_alive() for t in threads)
    assert len(hot) <= 16
    assert hot.as_dict()["payload_bytes"] == len(hot) * 16
