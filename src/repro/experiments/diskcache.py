"""Disk-backed sweep cache: persistent, cross-process scenario results.

The in-memory caches of a :class:`~repro.experiments.sweep.SweepRunner`
die with its process.  This module stores one file per evaluated scenario
under a cache directory so that

* a **warm second run** of the same sweep (same model/machine fingerprint,
  same scenario) is served from disk,
* **processes share one store**: whatever one shard run or fleet worker
  evaluated is a hit for every other process and for later runs.

Keys are the backend's scenario fingerprint — backend name + model/machine
and hardware fingerprints + the scenario's variables/seed — hashed to a
file name, so any change to the hardware model changes the key and misses
the cache instead of returning stale results (the same property the
in-memory compiled-executor caches have).

The concurrency and accounting discipline (atomic temp-file +
``os.replace`` writes, verified reads, lock-guarded hit/miss/store stats,
``prune`` bounding) lives in the shared :class:`repro.diskio.DirectoryStore`
base — the compiled-trace cache (:mod:`repro.simmpi.tracecache`) builds on
the same machinery with a raw-column codec.  This module only binds the pickle
codec, the sweep-result entry format and the hardware campaign store
(:class:`HardwareStore`).

Long-lived stores are bounded with :meth:`SweepDiskCache.prune`
(``max_entries`` / ``max_age_s`` eviction, oldest stores first), exposed
on the CLI as ``repro-sweep3d cache {stats,prune}``.

One cache object may also be shared by concurrent **in-process** readers
(the prediction service hits a single store from many coroutines and
worker threads): the hit/miss/store accounting is guarded by a lock, and
:meth:`SweepDiskCache.stats_snapshot` returns a consistent copy for
delta-based accounting.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

from repro.diskio import (DirectoryStore, DiskCacheStats, PruneResult,
                          fingerprint_digest)
from repro.experiments.backends import machine_fingerprint

__all__ = ["SweepDiskCache", "HardwareStore", "DiskCacheStats", "PruneResult",
           "fingerprint_digest"]


class _PickleStore(DirectoryStore):
    """A directory store of pickled ``(version, key, value)`` entries."""

    suffix = ".pkl"
    _decode_errors = (pickle.PickleError, EOFError, AttributeError,
                      ImportError)
    #: Format marker stored with every entry; bump to invalidate old entries.
    version: int

    def _encode(self, key: tuple, value: Any) -> tuple[bytes]:
        return (pickle.dumps((self.version, key, value),
                             protocol=pickle.HIGHEST_PROTOCOL),)

    def _decode(self, data: bytearray, key: tuple) -> Any:
        version, stored_key, result = pickle.loads(data)
        if version != self.version or stored_key != key:
            # Format change or (astronomically unlikely) digest collision.
            raise ValueError(f"stale or foreign {type(self).__name__} entry")
        return result


class SweepDiskCache(_PickleStore):
    """A directory of pickled scenario results keyed by fingerprint digest.

    Parameters
    ----------
    path:
        Cache directory; created on first use.  Multiple processes (shard
        runs, fleet workers, independent CLI invocations) may share one
        directory concurrently.
    """

    version = 2


class HardwareStore(_PickleStore):
    """Each machine's benchmark-campaign results, kept across processes.

    PACE builds a machine's HMCL object once from its benchmark campaigns
    and every later evaluation reads it.  This store keeps the two
    campaign results a :class:`~repro.machines.machine.Machine` memoises
    in-process: the fitted :class:`~repro.core.hmcl.model.MpiCostModel`
    and the profiled :class:`~repro.profiling.papi.FlopProfile`.  Values
    are pickled, so every float reads back exactly.  An entry's key is the
    machine's :func:`~repro.experiments.backends.machine_fingerprint` plus
    the campaign's own key, which names everything the campaign reads
    beyond the machine (``("mpi", inter_node)``, ``("flop-profile", nx,
    ny, kt, sn)``).  The study layer keeps one beside each sweep cache
    (``<cache_dir>/hardware``).  Bump :attr:`version` when a campaign's
    code changes what it returns.
    """

    version = 1

    def fetch(self, machine, campaign: tuple, run: Callable[[], Any]) -> Any:
        """The stored result of ``machine``'s ``campaign``, else ``run()``'s
        (then stored)."""
        key = (machine_fingerprint(machine), campaign)
        result = self.get(key)
        if result is None:
            result = run()
            self.put(key, result)
        return result
