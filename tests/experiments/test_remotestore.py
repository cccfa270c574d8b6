"""Tests for the object-store-style artifact/cache backend."""

import threading

import pytest

from repro.errors import StoreError
from repro.experiments.diskcache import SweepDiskCache
from repro.experiments.remotestore import (
    CacheSync,
    LocalDirStore,
    MemoryStore,
    memory_store,
    pull_cache_entries,
    push_cache_entries,
    store_from_url,
    validate_key,
)


@pytest.fixture(params=["memory", "localdir"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return LocalDirStore(tmp_path / "store")


class TestKeyValidation:
    def test_accepts_portable_keys(self):
        for key in ("a", "runs/abc/unit-0001", "cache/0f.pkl", "a.b_c-d"):
            assert validate_key(key) == key

    @pytest.mark.parametrize("key", [
        "", "/abs", "a//b", "a/", "../up", "a/../b", ".hidden/x",
        "sp ace", "unié", "a\\b",
    ])
    def test_rejects_unportable_keys(self, key):
        with pytest.raises(StoreError):
            validate_key(key)


class TestStoreRoundTrips:
    def test_bytes_round_trip(self, store):
        store.put_bytes("a/b", b"\x00\xffpayload")
        assert store.get_bytes("a/b") == b"\x00\xffpayload"
        assert store.exists("a/b")
        assert not store.exists("a/c")

    def test_get_missing_raises(self, store):
        with pytest.raises(StoreError, match="no object"):
            store.get_bytes("missing/key")

    def test_overwrite_replaces(self, store):
        store.put_bytes("k", b"one")
        store.put_bytes("k", b"two")
        assert store.get_bytes("k") == b"two"

    def test_list_keys_prefix(self, store):
        for key in ("runs/x/1", "runs/x/2", "runs/y/1", "other"):
            store.put_bytes(key, b".")
        assert store.list_keys("runs/x") == ["runs/x/1", "runs/x/2"]
        assert store.list_keys() == ["other", "runs/x/1", "runs/x/2",
                                     "runs/y/1"]

    def test_delete(self, store):
        store.put_bytes("gone", b".")
        assert store.delete("gone")
        assert not store.delete("gone")
        assert not store.exists("gone")

    def test_concurrent_writers(self, store):
        errors = []

        def hammer(tag):
            try:
                for i in range(30):
                    store.put_bytes(f"c/{tag}/{i}", bytes([i]) * 10)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(4)]
        [t.start() for t in threads]
        [t.join() for t in threads]
        assert not errors
        assert len(store.list_keys("c")) == 120


class TestStoreUrls:
    def test_memory_url_is_process_shared(self):
        one = store_from_url("mem://shared-bucket")
        two = store_from_url("mem://shared-bucket")
        one.put_bytes("k", b"v")
        assert two.get_bytes("k") == b"v"
        assert memory_store("shared-bucket") is one

    def test_file_url(self, tmp_path):
        store = store_from_url(f"file://{tmp_path}/bucket")
        store.put_bytes("k", b"v")
        assert (tmp_path / "bucket" / "k").read_bytes() == b"v"

    def test_bare_path(self, tmp_path):
        store = store_from_url(str(tmp_path / "bare"))
        assert isinstance(store, LocalDirStore)

    def test_unknown_scheme_raises(self):
        with pytest.raises(StoreError, match="scheme"):
            store_from_url("s3://nope")


class TestCacheSync:
    def _warm_cache(self, tmp_path, name="warm"):
        cache = SweepDiskCache(tmp_path / name)
        cache.put(("scenario", 1), {"elapsed": 1.25})
        cache.put(("scenario", 2), {"elapsed": 2.5})
        return cache

    def test_push_then_pull_restores_entries(self, store, tmp_path):
        warm = self._warm_cache(tmp_path)
        assert push_cache_entries(warm, store) == 2
        cold = SweepDiskCache(tmp_path / "cold")
        assert pull_cache_entries(store, cold) == 2
        assert cold.get(("scenario", 1)) == {"elapsed": 1.25}
        assert cold.get(("scenario", 2)) == {"elapsed": 2.5}

    def test_push_skips_already_pushed(self, store, tmp_path):
        warm = self._warm_cache(tmp_path)
        assert push_cache_entries(warm, store) == 2
        assert push_cache_entries(warm, store) == 0

    def test_pull_skips_existing_local(self, store, tmp_path):
        warm = self._warm_cache(tmp_path)
        push_cache_entries(warm, store)
        assert pull_cache_entries(store, warm) == 0

    def test_sync_calls_the_store_only_for_new_entries(self, tmp_path):
        store = CountingStore()
        push_cache_entries(self._warm_cache(tmp_path, "peer"), store)
        local = SweepDiskCache(tmp_path / "local")
        local.put(("scenario", 3), {"elapsed": 3.75})  # never in the store
        sync = CacheSync(local, store)
        assert sync.pull() == 2
        store.calls = 0
        assert sync.push() == 1          # the local-only entry, once
        assert store.calls == 2          # one exists() + one put_bytes()
        assert sync.push() == 0
        assert store.calls == 2          # nothing new: no store call
        local.put(("scenario", 4), {"elapsed": 5.0})
        assert sync.push() == 1
        assert store.calls == 4
        assert len(store.list_keys("cache")) == 4


class CountingStore(MemoryStore):
    """A MemoryStore that counts existence checks and writes."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def exists(self, key: str) -> bool:
        self.calls += 1
        return super().exists(key)

    def put_bytes(self, key: str, data: bytes) -> None:
        self.calls += 1
        super().put_bytes(key, data)
