"""Generic fingerprint-keyed directory stores (shared cache machinery).

Two persistent caches share one concurrency and accounting discipline:
the scenario-result sweep cache
(:class:`repro.experiments.diskcache.SweepDiskCache`, pickle payloads)
and the compiled-trace cache
(:class:`repro.simmpi.tracecache.TraceDiskCache`, raw-column
payloads).  This module holds the codec-independent machinery both build
on, so the contract is defined — and tested — exactly once:

* **one file per entry**, named by the SHA-256 digest of the entry's
  fingerprint key (:func:`fingerprint_digest`), so any change to the
  inputs changes the file name and misses instead of serving stale data;
* **atomic writes** (temp file + ``os.replace`` in the store directory):
  concurrent writers — including two processes storing the *same* key —
  never interleave partial files, readers see whole entries or none;
* **verified reads**: every entry is framed by a CRC-32 checksum of its
  payload, checked before the payload is decoded, so a torn, truncated
  or bit-flipped file never reaches the codec; the decoded entry must
  then carry the exact key that was asked for (guarding against format
  drift and digest collisions).  Corrupt, foreign or unreadable entries
  are misses, never errors;
* **lock-guarded accounting** (:class:`DiskCacheStats`) safe for many
  threads sharing one store object, with :meth:`DirectoryStore.prune`
  bounding long-lived stores (oldest-stored first).

The module sits below both :mod:`repro.simmpi` and
:mod:`repro.experiments` in the layering (it imports only the stdlib and
:mod:`repro.errors`), which is what lets the simulator-level trace cache
reuse the experiment-level sweep cache's discipline without an import
cycle.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ExperimentError


@dataclass
class DiskCacheStats:
    """Hit/miss/store accounting for one :class:`DirectoryStore`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def merge(self, other: "DiskCacheStats") -> "DiskCacheStats":
        return DiskCacheStats(hits=self.hits + other.hits,
                              misses=self.misses + other.misses,
                              stores=self.stores + other.stores)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        return (f"disk cache {self.hits} hit(s) / {self.misses} miss(es), "
                f"{self.stores} store(s)")


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one :meth:`DirectoryStore.prune` pass."""

    removed: int
    kept: int
    reclaimed_bytes: int

    def describe(self) -> str:
        return (f"pruned {self.removed} entr{'y' if self.removed == 1 else 'ies'}, "
                f"kept {self.kept}, reclaimed {self.reclaimed_bytes} bytes")


#: Length of the checksum (big-endian CRC-32 of the payload) framing
#: every entry.
_CHECKSUM_BYTES = 4


def _checksum(payload: bytes | bytearray) -> bytes:
    return zlib.crc32(payload).to_bytes(_CHECKSUM_BYTES, "big")


def write_atomic(path: Path, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` atomically.

    The bytes go to a temporary file in the same directory (created when
    missing) and move into place with ``os.replace``, which is atomic on
    POSIX and Windows: concurrent writers race to one complete file and
    readers never see a partial one.  Raw ``os`` calls keep the write to
    four syscalls; each one lets a busy thread take the GIL.
    """
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        try:
            for chunk in chunks:
                view = memoryview(chunk)
                while view:
                    view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def fingerprint_digest(key: tuple) -> str:
    """Stable hex digest of a fingerprint tuple.

    The tuple is rendered with ``repr`` — every component the callers put
    in a fingerprint (strings, numbers, bools, nested tuples) has a stable,
    process-independent representation — and hashed with SHA-256.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class DirectoryStore:
    """A directory of encoded entries keyed by fingerprint digest.

    Subclasses choose the payload codec by setting :attr:`suffix` and
    implementing :meth:`_encode` / :meth:`_decode`; everything else —
    atomic writes, miss-on-corruption reads, accounting and pruning — is
    shared.

    Parameters
    ----------
    path:
        Store directory; created on first use.  Multiple processes (shard
        runs, fleet workers, independent CLI invocations) may share one
        directory concurrently.
    """

    #: File suffix of every entry (used to enumerate the store).
    suffix = ".pkl"

    #: Codec-specific exceptions :meth:`_decode` may raise on a corrupt or
    #: truncated payload, beyond the ``OSError``/``ValueError``/``KeyError``
    #: the base read path already treats as misses.
    _decode_errors: tuple[type[BaseException], ...] = ()

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.stats = DiskCacheStats()
        #: Guards the accounting: one store object may serve many threads
        #: (the prediction service's worker pool), and ``stats.hits += 1``
        #: is a read-modify-write that would drop counts unguarded.
        self._stats_lock = threading.Lock()
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ExperimentError(
                f"cannot create cache directory {self.path}: {exc}") from exc

    # -- codec hooks (subclass responsibility) --------------------------

    def _encode(self, key: tuple, value: Any) -> bytes:
        """Serialise ``(key, value)`` into one entry payload."""
        raise NotImplementedError

    def _decode(self, data: bytearray, key: tuple) -> Any:
        """Recover the value from ``data`` (a payload whose checksum has
        been verified), checking it was stored under ``key`` (raise
        ``ValueError`` for a stale or foreign entry)."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def _entry_path(self, key: tuple) -> Path:
        return self.path / f"{fingerprint_digest(key)}{self.suffix}"

    def get(self, key: tuple) -> Any | None:
        """The stored value for ``key``, or ``None`` (counted as a miss)."""
        entry = self._entry_path(key)
        try:
            with open(entry, "rb") as handle:
                # One sized read into a writable buffer, which codecs may
                # view without copying.
                size = os.fstat(handle.fileno()).st_size
                checksum = handle.read(_CHECKSUM_BYTES)
                payload = bytearray(max(size - _CHECKSUM_BYTES, 0))
                handle.readinto(payload)
            if _checksum(payload) != checksum:
                raise ValueError("entry checksum mismatch")
            value = self._decode(payload, key)
        except (OSError, ValueError, KeyError, *self._decode_errors):
            with self._stats_lock:
                self.stats.misses += 1
            return None
        with self._stats_lock:
            self.stats.hits += 1
        return value

    def put(self, key: tuple, value: Any) -> None:
        """Store ``value`` under ``key`` atomically.

        The entry is the payload's CRC-32 checksum followed by the
        payload, written with :func:`write_atomic` — concurrent writers of
        the same key simply race to an identical complete file, and
        readers never observe a partial one.
        """
        payload = self._encode(key, value)
        write_atomic(self._entry_path(key), _checksum(payload), payload)
        with self._stats_lock:
            self.stats.stores += 1

    # ------------------------------------------------------------------

    def entries(self) -> list[Path]:
        """Every entry file currently in the store."""
        return sorted(self.path.glob(f"*{self.suffix}"))

    def __len__(self) -> int:
        return sum(1 for _ in self.path.glob(f"*{self.suffix}"))

    def total_bytes(self) -> int:
        """Total on-disk size of every entry (bytes)."""
        total = 0
        for entry in self.path.glob(f"*{self.suffix}"):
            try:
                total += entry.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in self.path.glob(f"*{self.suffix}"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_entries: int | None = None,
              max_age_s: float | None = None,
              now: float | None = None) -> "PruneResult":
        """Evict stale and excess entries from a long-lived store.

        Parameters
        ----------
        max_entries:
            Keep at most this many entries, evicting the least recently
            *stored* first (entries are immutable, so the file mtime is
            the store time).
        max_age_s:
            Evict every entry stored more than this many seconds ago.
        now:
            Reference timestamp for ``max_age_s`` (defaults to the wall
            clock; injectable for tests).

        Entries that vanish mid-prune (a concurrent pruner or ``clear``)
        are skipped, not errors — the store stays safe under the same
        concurrent access the reads and atomic writes support.
        """
        if max_entries is not None and max_entries < 0:
            raise ExperimentError("prune: max_entries must be >= 0")
        if max_age_s is not None and max_age_s < 0:
            raise ExperimentError("prune: max_age_s must be >= 0")
        now = time.time() if now is None else now

        stamped: list[tuple[float, int, Path]] = []
        for entry in self.path.glob(f"*{self.suffix}"):
            try:
                info = entry.stat()
            except OSError:
                continue
            stamped.append((info.st_mtime, info.st_size, entry))
        stamped.sort()  # oldest first

        doomed: dict[Path, int] = {}
        if max_age_s is not None:
            cutoff = now - max_age_s
            for mtime, size, entry in stamped:
                if mtime < cutoff:
                    doomed[entry] = size
        if max_entries is not None:
            survivors = [item for item in stamped if item[2] not in doomed]
            excess = len(survivors) - max_entries
            for mtime, size, entry in survivors[:max(0, excess)]:
                doomed[entry] = size

        removed = reclaimed = 0
        for entry, size in doomed.items():
            try:
                entry.unlink()
            except OSError:
                continue
            removed += 1
            reclaimed += size
        return PruneResult(removed=removed, kept=len(stamped) - removed,
                           reclaimed_bytes=reclaimed)

    def stats_snapshot(self) -> DiskCacheStats:
        """A consistent copy of the accounting (safe under concurrent use)."""
        with self._stats_lock:
            return DiskCacheStats(hits=self.stats.hits,
                                  misses=self.stats.misses,
                                  stores=self.stats.stores)
