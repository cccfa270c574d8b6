"""Remote artifact + cache backend: one object-store interface, many homes.

Sharded execution (:mod:`repro.experiments.sharding`) and the elastic
fleet (:mod:`repro.experiments.fleet`) need shard results, run manifests
and warm :class:`~repro.experiments.diskcache.SweepDiskCache` entries to
flow between machines that do **not** share a filesystem.  This module
provides the transport: a minimal object-store abstraction
(:class:`ArtifactStore`) with a flat, ``/``-separated key namespace laid
out like a bucket::

    cache/<fingerprint-digest>.pkl          # warm sweep-cache entries
    runs/<parent16>/unit-0003.g0.json       # one fleet unit's result object

A unit's result object is its ``StudyResult.to_dict()`` document; the
coordinator parses it with the same typed checks an artifact directory's
manifest gets.

Keys reuse the fingerprint scheme the rest of the system already trusts:
cache objects are named by the same
:func:`~repro.experiments.diskcache.fingerprint_digest` the disk cache
files use, and run prefixes embed the parent spec's content hash — so a
store can be shared by many fleets and machines without key collisions,
and a stale or foreign object can never be mistaken for a current one
(the loaders re-verify hashes on read).

Two implementations ship behind the one interface:

* :class:`LocalDirStore` — a directory standing in for a bucket (NFS
  mount, CI workspace, or a bucket mounted via FUSE).  Writes
  are atomic (temp file + ``os.replace``), mirroring the disk cache's
  concurrency contract: concurrent writers never interleave, readers
  see whole objects or nothing.
* :class:`MemoryStore` — a thread-safe in-process dict for tests,
  benchmarks and single-process fleets.

:func:`store_from_url` turns a CLI-friendly URL (``mem://name``,
``file:///path`` or a bare path) into a store instance;
:func:`push_cache_entries` / :func:`pull_cache_entries` sync a cache
directory with a store, and :class:`CacheSync` does so repeatedly over
one run, so fleet workers warm-start from each other's scenario
evaluations.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path

from repro.diskio import write_atomic
from repro.errors import StoreError
from repro.experiments.diskcache import SweepDiskCache

#: Key segments: portable file-name characters only, no dot-only names.
_SEGMENT = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Default key prefix for synced sweep-cache entries.
CACHE_PREFIX = "cache"


def validate_key(key: str) -> str:
    """Check (and return) a store key: ``/``-separated portable segments.

    Rejects empty keys, absolute paths, ``..`` traversal and characters
    that are not portable file names, so every backend — including the
    directory-backed one — can map keys to paths verbatim.
    """
    if not key or not isinstance(key, str):
        raise StoreError(f"bad store key {key!r}: empty")
    segments = key.split("/")
    for segment in segments:
        if not _SEGMENT.match(segment) or segment in (".", ".."):
            raise StoreError(
                f"bad store key {key!r}: segment {segment!r} is not a "
                "portable object name")
    return key


class ArtifactStore:
    """Abstract object store: flat keys, whole-object reads and writes.

    Subclasses implement the four primitives; the JSON/text conveniences
    are shared.  All methods are safe under concurrent use
    from multiple threads (and, for :class:`LocalDirStore`, processes).
    """

    # -- primitives (subclass responsibility) ---------------------------

    def put_bytes(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def get_bytes(self, key: str) -> bytes:
        """The object at ``key``; raises :class:`StoreError` when absent."""
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        raise NotImplementedError

    def list_keys(self, prefix: str = "") -> list[str]:
        """Every key under ``prefix`` (sorted; ``""`` lists everything)."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class MemoryStore(ArtifactStore):
    """A thread-safe in-process store (tests, benchmarks, local fleets)."""

    def __init__(self):
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def put_bytes(self, key: str, data: bytes) -> None:
        validate_key(key)
        with self._lock:
            self._objects[key] = bytes(data)

    def get_bytes(self, key: str) -> bytes:
        with self._lock:
            data = self._objects.get(key)
        if data is None:
            raise StoreError(f"no object {key!r} in {self.describe()}")
        return data

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._objects

    def list_keys(self, prefix: str = "") -> list[str]:
        prefix = prefix.strip("/")
        with self._lock:
            keys = list(self._objects)
        if not prefix:
            return sorted(keys)
        return sorted(key for key in keys
                      if key == prefix or key.startswith(prefix + "/"))

    def describe(self) -> str:
        return f"MemoryStore({len(self._objects)} object(s))"


class LocalDirStore(ArtifactStore):
    """A directory standing in for an object-store bucket.

    Keys map to paths under ``root`` verbatim (validated against
    traversal); writes are atomic via temp file + ``os.replace``, so the
    store is safe for concurrent writers across processes — the same
    contract :class:`~repro.experiments.diskcache.SweepDiskCache` gives.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot create store directory {self.root}: {exc}") from exc

    def _path(self, key: str) -> Path:
        validate_key(key)
        return self.root / Path(*key.split("/"))

    def put_bytes(self, key: str, data: bytes) -> None:
        target = self._path(key)
        try:
            write_atomic(target, data)
        except OSError as exc:
            raise StoreError(f"cannot store {key!r} in {self.root}: {exc}") from exc

    def get_bytes(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise StoreError(f"no object {key!r} in {self.describe()}") from None
        except OSError as exc:
            raise StoreError(f"cannot read {key!r}: {exc}") from exc

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def list_keys(self, prefix: str = "") -> list[str]:
        prefix = prefix.strip("/")
        base = self.root / Path(*prefix.split("/")) if prefix else self.root
        if base.is_file():
            return [prefix]
        if not base.is_dir():
            return []
        keys = []
        for path in base.rglob("*"):
            if path.is_file() and not path.name.endswith(".tmp"):
                keys.append(path.relative_to(self.root).as_posix())
        return sorted(keys)

    def describe(self) -> str:
        return f"LocalDirStore({self.root})"


#: Named in-process stores (``mem://name`` URLs); one registry per process
#: so a coordinator and its in-process workers resolve the same object.
_MEMORY_STORES: dict[str, MemoryStore] = {}
_MEMORY_LOCK = threading.Lock()


def memory_store(name: str = "default") -> MemoryStore:
    """The process-wide named :class:`MemoryStore` (created on first use)."""
    with _MEMORY_LOCK:
        store = _MEMORY_STORES.get(name)
        if store is None:
            store = _MEMORY_STORES[name] = MemoryStore()
        return store


def store_from_url(url: str | os.PathLike) -> ArtifactStore:
    """An :class:`ArtifactStore` from a CLI-friendly URL.

    ``mem://<name>`` names a process-wide in-memory store,
    ``file://<path>`` (or any bare path) a :class:`LocalDirStore`.
    """
    text = str(url)
    if text.startswith("mem://"):
        return memory_store(text[len("mem://"):] or "default")
    if text.startswith("file://"):
        text = text[len("file://"):]
    elif re.match(r"^[A-Za-z][A-Za-z0-9+.-]*://", text):
        scheme = text.split("://", 1)[0]
        raise StoreError(
            f"unsupported store URL scheme {scheme!r} in {url!r} "
            "(supported: mem://, file://, bare paths)")
    if not text:
        raise StoreError(f"bad store URL {url!r}")
    return LocalDirStore(text)


# ---------------------------------------------------------------------------
# Sweep-cache sync: warm entries flow between machines through the store
# ---------------------------------------------------------------------------


def _cache_entry_names(cache) -> set[str]:
    return {entry.name for entry in cache.entries()}


class CacheSync:
    """Keeps one local cache directory and a store in step over a run.

    ``cache`` is any :class:`~repro.diskio.DirectoryStore` — the sweep
    result cache or the compiled-trace cache.  Entries are keyed
    ``<prefix>/<digest><suffix>`` — the same digest name the disk cache
    uses — so two machines pushing the same evaluation write the same
    object, and an object can only ever be claimed by the fingerprint
    that produced it (the cache re-verifies the stored key on read).

    The sync remembers every entry name it saw in the store or uploaded,
    so a repeated :meth:`push` lists the local directory once and calls
    the store only for entries that appeared since.
    """

    def __init__(self, cache, store: ArtifactStore,
                 prefix: str = CACHE_PREFIX):
        self.cache = cache
        self.store = store
        self.prefix = prefix
        #: Entry names the store is known to hold.
        self.synced: set[str] = set()

    def pull(self) -> int:
        """Download store-held entries missing locally; returns the count.

        Only objects carrying the cache's suffix are fetched.  The
        transfer is byte-for-byte; a corrupt or foreign object is
        harmless because the cache's ``get`` re-verifies the stored
        fingerprint key before serving a hit.
        """
        have = _cache_entry_names(self.cache)
        pulled = 0
        for key in self.store.list_keys(self.prefix):
            name = key.rsplit("/", 1)[-1]
            if not name.endswith(self.cache.suffix):
                continue
            self.synced.add(name)
            if name in have:
                continue
            try:
                write_atomic(self.cache.path / name, self.store.get_bytes(key))
            except (OSError, StoreError):
                continue
            pulled += 1
        return pulled

    def push(self) -> int:
        """Upload local entries this sync has not pulled or pushed yet
        (and the store does not hold); returns the number uploaded."""
        pushed = 0
        for name in sorted(_cache_entry_names(self.cache) - self.synced):
            key = f"{self.prefix}/{name}"
            if not self.store.exists(key):
                try:
                    data = (self.cache.path / name).read_bytes()
                except OSError:
                    continue  # concurrently pruned — nothing to push
                self.store.put_bytes(key, data)
                pushed += 1
            self.synced.add(name)
        return pushed


def push_cache_entries(cache, store: ArtifactStore,
                       prefix: str = CACHE_PREFIX) -> int:
    """Upload local cache entries the store does not hold yet.

    A one-shot :meth:`CacheSync.push`; returns the number uploaded.
    """
    return CacheSync(cache, store, prefix).push()


def pull_cache_entries(store: ArtifactStore, cache,
                       prefix: str = CACHE_PREFIX) -> int:
    """Download store-held cache entries missing locally (warm start).

    A one-shot :meth:`CacheSync.pull`; returns the number fetched.
    """
    return CacheSync(cache, store, prefix).pull()
