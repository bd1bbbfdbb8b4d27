"""Result caches for sweep points: on-disk tier + in-memory hot tier.

:class:`ResultCache` — the on-disk tier.  Layout:
``<dir>/<key[:2]>/<key>.json`` — one JSON document per result, sharded
by the first key byte so directories stay small on big grids.  Writes
are atomic (*write to a temp file in the same directory, then
``os.replace``*), so a cache shared by concurrent sweeps or killed
mid-write never yields a torn read; a corrupt or unreadable entry is
treated as a miss and overwritten on the next store.

:class:`HotCache` — the bounded in-memory tier the compile service
keeps *above* the disk cache: an LRU of already-serialized payload
bytes keyed by the same content hash, so a repeat-hot circuit is served
straight from memory with no disk I/O and no JSON re-serialization.
Entries and total payload bytes are both bounded; eviction is
strict-LRU and every hit/miss/eviction is counted
(:class:`HotCacheStats`), which the service reports under ``hot_cache``
in ``/metrics``.

Only *successful* payloads are cached in either tier: failures must
re-execute on the next run (the failure may have been transient, and
`degraded rows should never outlive the sweep that produced them`).

Invalidation is entirely key-side (see :mod:`repro.exec.hashing`): a
changed netlist, configuration, or code version simply hashes to a new
key.  Stale entries are garbage, never wrong answers; deleting the cache
directory drops them wholesale.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

__all__ = ["CacheStats", "ResultCache", "HotCacheStats", "HotCache"]


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0  # unreadable/corrupt entries encountered

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (for ``--stats-json`` and CI gates)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ResultCache:
    """Directory-backed cache of sweep payloads keyed by content hash.

    Example:
        >>> import tempfile
        >>> cache = ResultCache(tempfile.mkdtemp())
        >>> cache.get("ab" * 32) is None
        True
        >>> cache.put("ab" * 32, {"n_cut_nets": 7})
        True
        >>> cache.get("ab" * 32)
        {'n_cut_nets': 7}
        >>> (cache.stats.hits, cache.stats.misses, cache.stats.stores)
        (1, 1, 1)
    """

    directory: Union[str, Path]
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        # No eager mkdir: the constructor runs on service event loops
        # (CompileService.__init__) and must not touch the filesystem.
        # put() creates the shard directories on first store; an
        # unusable cache directory therefore surfaces as stats.errors
        # on the first store instead of an exception at boot.
        # Guards the stats counters: get/put run on executor threads
        # while the service reads snapshots from the event loop.  Not a
        # dataclass field — never compared, never pickled.
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return Path(self.directory) / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached payload for ``key``, or ``None`` on a miss.

        Corrupt/unreadable entries count as misses (and bump
        ``stats.errors``) rather than raising.
        """
        path = self._path(key)
        try:
            with open(path) as fh:
                document = json.load(fh)
            payload = document["payload"]
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            with self._lock:
                self.stats.errors += 1
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, object], **meta) -> bool:
        """Atomically store ``payload`` under ``key``; ``True`` on success.

        ``meta`` (circuit name, kind, ...) is stored alongside for
        debuggability; only ``payload`` is ever read back.

        A store that fails — unserializable payload, full/read-only
        disk — returns ``False`` and bumps ``stats.errors`` instead of
        raising (a cache write must never sink the sweep that produced
        the result), and the temp file is always unlinked, never
        orphaned in the shard directory.
        """
        path = self._path(key)
        document = {"key": key, "meta": meta, "payload": payload}
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w") as fh:
                json.dump(document, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
            tmp = None
        except (OSError, TypeError, ValueError):
            with self._lock:
                self.stats.errors += 1
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        with self._lock:
            self.stats.stores += 1
        return True

    def stats_snapshot(self) -> Dict[str, object]:
        """Consistent plain-dict view of the counters, taken under the lock.

        ``/metrics`` readers must use this instead of ``stats.as_dict()``:
        the counters are mutated from executor threads, and an unlocked
        multi-field read can observe a torn update (e.g. ``hits`` from
        before a lookup with ``misses`` from after it).
        """
        with self._lock:
            return self.stats.as_dict()

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for _ in Path(self.directory).glob("*/*.json"))

    def flush(self, min_age_s: float = 0.0) -> int:
        """Remove orphaned ``.tmp-*`` files; returns how many were removed.

        :meth:`put` cleans up after itself, so leftovers only appear
        when a writer was killed mid-store (e.g. an OOM-killed sweep
        worker).  The compile service calls this as part of its
        graceful drain so a SIGTERM never strands temp files in the
        shard directories.

        ``min_age_s`` protects writers that may still be mid-store
        (stranded executor threads, other processes sharing the
        directory): only temp files whose mtime is at least that many
        seconds old are reaped.  The default ``0.0`` reaps everything —
        only safe once all writers have provably quiesced.
        """
        cutoff = time.time() - min_age_s
        n = 0
        for path in Path(self.directory).glob("*/.tmp-*"):
            try:
                if min_age_s > 0 and path.stat().st_mtime > cutoff:
                    continue
                path.unlink()
                n += 1
            except OSError:
                pass
        return n


@dataclass
class HotCacheStats:
    """Hit/miss/eviction counters of one :class:`HotCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    oversized: int = 0  # payloads rejected for exceeding the byte bound

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (merged into the service ``/metrics``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "oversized": self.oversized,
            "hit_rate": self.hit_rate,
        }


class HotCache:
    """Bounded in-memory LRU of serialized payload bytes, keyed by content hash.

    The compile service's hot tier: values are the *already-serialized*
    (sorted-keys JSON) payload bytes, so serving a hit does no disk I/O
    and no JSON round-trip — the bytes are spliced straight into the
    HTTP response.  Both the entry count and the summed payload bytes
    are bounded; insertion evicts strict-LRU until both bounds hold.
    Thread-safe: the service touches it from the event loop *and* from
    executor threads.

    Like the disk tier, keys are content hashes (netlist + config +
    code version), so entries can be stale-useless but never stale-wrong.

    Example:
        >>> hot = HotCache(max_entries=2, max_bytes=1024)
        >>> hot.put("a" * 64, b'{"x":1}')
        True
        >>> hot.get("a" * 64)
        b'{"x":1}'
        >>> hot.put("b" * 64, b'{"x":2}') and hot.put("c" * 64, b'{"x":3}')
        True
        >>> hot.get("a" * 64) is None  # LRU-evicted by the third insert
        True
        >>> (hot.stats.hits, hot.stats.misses, hot.stats.evictions)
        (1, 1, 1)
    """

    def __init__(self, max_entries: int = 512, max_bytes: int = 64 << 20):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = HotCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0

    def get(self, key: str) -> Optional[bytes]:
        """The cached payload bytes for ``key`` (refreshing its recency)."""
        with self._lock:
            blob = self._entries.get(key)
            if blob is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return blob

    def peek(self, key: str) -> bool:
        """Whether ``key`` is resident, without touching recency or stats."""
        with self._lock:
            return key in self._entries

    def put(self, key: str, blob: bytes) -> bool:
        """Insert ``blob`` under ``key``; ``True`` unless it can never fit.

        A payload larger than ``max_bytes`` on its own is rejected
        (counted as ``oversized``) rather than evicting the whole tier
        for one giant entry.  Re-inserting an existing key refreshes
        both the value and its recency.
        """
        size = len(blob)
        if size > self.max_bytes:
            with self._lock:
                self.stats.oversized += 1
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = blob
            self._bytes += size
            self.stats.stores += 1
            while len(self._entries) > self.max_entries or (
                self._bytes > self.max_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self.stats.evictions += 1
        return True

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            return n

    def __len__(self) -> int:
        """Number of resident entries."""
        with self._lock:
            return len(self._entries)

    def as_dict(self) -> Dict[str, object]:
        """Stats + occupancy snapshot (for ``/metrics``).

        The whole snapshot — occupancy *and* counters — is taken under
        the lock: the counters are mutated by executor threads, and
        reading them unlocked can pair an ``entries`` count from one
        moment with ``stores``/``evictions`` from another (torn read).
        """
        with self._lock:
            snapshot = {
                "entries": len(self._entries),
                "payload_bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
            }
            snapshot.update(self.stats.as_dict())
        return snapshot
