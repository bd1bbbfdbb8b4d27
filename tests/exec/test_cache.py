"""Unit tests for the on-disk result cache and its content-hash keys.

Covers the three invalidation axes promised by :mod:`repro.exec.hashing`
(netlist bytes, configuration, code version), the atomic-write contract
of :class:`repro.exec.cache.ResultCache`, and corrupt-entry tolerance.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import MercedConfig
from repro.exec import ResultCache, SweepFarm, SweepPoint, point_key
from repro.exec import hashing


def _point(**overrides) -> SweepPoint:
    defaults = dict(
        kind="merced",
        circuit="s27",
        bench="INPUT(a)\nb = DFF(a)\nOUTPUT(b)\n",
        config=MercedConfig(seed=1),
    )
    defaults.update(overrides)
    return SweepPoint(**defaults)


# ----------------------------------------------------------------------
# key derivation / invalidation
# ----------------------------------------------------------------------
def test_point_key_is_stable_and_hexdigest():
    k1 = point_key(_point(), code="c0")
    k2 = point_key(_point(), code="c0")
    assert k1 == k2
    assert len(k1) == 64 and set(k1) <= set("0123456789abcdef")


def test_point_key_changes_with_netlist_bytes():
    base = point_key(_point(), code="c0")
    edited = point_key(
        _point(bench="INPUT(a)\nb = NOT(a)\nOUTPUT(b)\n"), code="c0"
    )
    assert base != edited


def test_point_key_changes_with_any_config_field():
    base = point_key(_point(), code="c0")
    assert point_key(_point(config=MercedConfig(seed=2)), code="c0") != base
    assert (
        point_key(_point(config=MercedConfig(seed=1).with_lk(20)), code="c0")
        != base
    )
    assert (
        point_key(
            _point(config=MercedConfig(seed=1, min_visit=9)), code="c0"
        )
        != base
    )


def test_point_key_changes_with_params_kind_and_code_version():
    base = point_key(_point(), code="c0")
    assert point_key(_point(kind="beta"), code="c0") != base
    assert (
        point_key(_point(params=SweepPoint.make_params({"x": 1})), code="c0")
        != base
    )
    assert point_key(_point(), code="c1") != base


# ----------------------------------------------------------------------
# the cache itself
# ----------------------------------------------------------------------
def test_cache_roundtrip_and_stats(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "ab" * 32
    assert cache.get(key) is None
    cache.put(key, {"n_cut_nets": 7, "pct": 80.5}, circuit="s27")
    assert cache.get(key) == {"n_cut_nets": 7, "pct": 80.5}
    assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (
        1,
        1,
        1,
    )
    assert cache.stats.hit_rate == 0.5
    assert len(cache) == 1


def test_cache_is_sharded_and_leaves_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path)
    key = "cd" * 32
    cache.put(key, {"v": 1})
    entry = tmp_path / key[:2] / f"{key}.json"
    assert entry.exists()
    leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
    assert leftovers == []
    document = json.loads(entry.read_text())
    assert document["key"] == key
    assert document["payload"] == {"v": 1}


def test_corrupt_entry_is_a_miss_not_an_error(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ef" * 32
    path = Path(tmp_path) / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True)
    path.write_text("{ this is not json")
    assert cache.get(key) is None
    assert cache.stats.errors == 1
    # a well-formed file missing the payload field is equally tolerated
    path.write_text(json.dumps({"key": key, "meta": {}}))
    assert cache.get(key) is None
    assert cache.stats.errors == 2
    # and a store repairs it
    cache.put(key, {"v": 2})
    assert cache.get(key) == {"v": 2}


def test_put_with_unserializable_payload_is_leak_free(tmp_path):
    """Regression: a failed store must not orphan its temp file.

    Pre-fix, a payload that JSON refuses to serialize left a ``.tmp-*``
    file behind in the shard directory forever (and the raised exception
    crashed the sweep that produced the result).
    """
    cache = ResultCache(tmp_path)
    key = "ab" * 32
    assert cache.put(key, {"bad": object()}) is False
    assert cache.stats.errors == 1
    assert cache.stats.stores == 0
    leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
    assert leftovers == []
    # the slot is still usable afterwards
    assert cache.put(key, {"good": 1}) is True
    assert cache.get(key) == {"good": 1}


def test_put_with_circular_payload_is_leak_free(tmp_path):
    """Payload rejected mid-write (circular reference) — the partial
    temp file must be unlinked, not promoted or leaked."""
    cache = ResultCache(tmp_path)
    circular = {}
    circular["self"] = circular
    assert cache.put("cd" * 32, circular) is False
    assert cache.stats.errors == 1
    assert len(cache) == 0
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]


def test_put_into_unwritable_shard_counts_error(tmp_path):
    """An OS-level write failure (here: the shard path is occupied by a
    plain file, so ``mkdir`` fails) degrades to ``False``, not a raise.
    (A chmod-based variant would be a no-op under root, e.g. in CI.)"""
    cache = ResultCache(tmp_path)
    (tmp_path / "ef").write_text("not a directory")
    assert cache.put("ef" * 32, {"v": 1}) is False
    assert cache.stats.errors == 1
    leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
    assert leftovers == []


def test_flush_removes_orphaned_temp_files(tmp_path):
    """``flush`` reaps temp files left by *killed* writers (the drain
    path of the compile service calls it on SIGTERM)."""
    cache = ResultCache(tmp_path)
    cache.put("ab" * 32, {"v": 1})
    shard = tmp_path / "ab"
    (shard / ".tmp-orphan1.json").write_text("{}")
    (shard / ".tmp-orphan2.json").write_text("{}")
    assert cache.flush() == 2
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
    # real entries are untouched
    assert cache.get("ab" * 32) == {"v": 1}
    assert cache.flush() == 0


def test_flush_age_threshold_spares_active_writers(tmp_path):
    """``flush(min_age_s=...)`` only reaps temp files old enough to be
    provably orphaned — a still-running writer's fresh temp file must
    survive so its ``os.replace`` can land."""
    cache = ResultCache(tmp_path)
    cache.put("ab" * 32, {"v": 1})
    shard = tmp_path / "ab"
    stale = shard / ".tmp-stale.json"
    fresh = shard / ".tmp-fresh.json"
    stale.write_text("{}")
    fresh.write_text("{}")
    past = time.time() - 3600.0
    os.utime(stale, (past, past))
    assert cache.flush(min_age_s=60.0) == 1
    assert not stale.exists()
    assert fresh.exists()
    # quiesced flush (the default) still reaps everything
    assert cache.flush() == 1


def test_farm_survives_unserializable_result(tmp_path):
    """An uncacheable payload degrades to 'not stored', never a crash."""
    cache = ResultCache(tmp_path)
    farm = SweepFarm(cache=cache)
    point = SweepPoint(
        "_echo", "demo", params=SweepPoint.make_params({"x": (1, 2)})
    )
    results = farm.map([point])  # tuple params echo fine, store fine
    assert results[0].ok
    # now force the store itself to fail
    cache.put = lambda *a, **k: False  # type: ignore[method-assign]
    results = farm.map([point])
    assert results[0].ok


# ----------------------------------------------------------------------
# farm-level cache behaviour
# ----------------------------------------------------------------------
def test_farm_hits_cache_on_second_map(tmp_path):
    points = [
        SweepPoint("_echo", "demo", params=SweepPoint.make_params({"x": i}))
        for i in range(4)
    ]
    cold = SweepFarm(cache=ResultCache(tmp_path))
    first = cold.map(points)
    assert all(r.ok and not r.cache_hit for r in first)
    warm = SweepFarm(cache=ResultCache(tmp_path))
    second = warm.map(points)
    assert all(r.ok and r.cache_hit and r.attempts == 0 for r in second)
    assert [r.value for r in second] == [r.value for r in first]
    assert warm.cache.stats.hits == 4
    assert warm.cache.stats.misses == 0


def test_code_version_change_invalidates_farm_cache(tmp_path, monkeypatch):
    points = [
        SweepPoint("_echo", "demo", params=SweepPoint.make_params({"x": 9}))
    ]
    monkeypatch.setattr(hashing, "_CODE_VERSION", "a" * 64)
    farm = SweepFarm(cache=ResultCache(tmp_path))
    farm.map(points)
    assert farm.cache.stats.stores == 1
    # same sources → warm
    warm = SweepFarm(cache=ResultCache(tmp_path))
    assert warm.map(points)[0].cache_hit
    # "edited" sources → every key misses, nothing stale is served
    monkeypatch.setattr(hashing, "_CODE_VERSION", "b" * 64)
    stale = SweepFarm(cache=ResultCache(tmp_path))
    result = stale.map(points)[0]
    assert not result.cache_hit and result.attempts == 1
    assert stale.cache.stats.misses == 1


def test_failures_are_never_cached(tmp_path):
    point = SweepPoint(
        "_raise",
        "demo",
        params=SweepPoint.make_params({"message": "transient"}),
    )
    farm = SweepFarm(retries=0, cache=ResultCache(tmp_path))
    result = farm.map([point])[0]
    assert not result.ok
    assert farm.cache.stats.stores == 0
    assert len(farm.cache) == 0
