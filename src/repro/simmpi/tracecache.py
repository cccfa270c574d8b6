"""Persistent compiled-trace cache: capture once per decomposition, ever.

Even with periodic capture (:mod:`repro.simmpi.capture`) a cold process
pays one short recorder pass per distinct (deck, decomposition, network,
processor) combination.  This module persists the capture to disk under
the same fingerprint-keyed, atomic-write, verified-read discipline as the
sweep cache (:class:`~repro.experiments.diskcache.SweepDiskCache` — both
build on :class:`repro.diskio.DirectoryStore`), so

* decks sharing a decomposition never re-capture across processes
  (shard runs, fleet workers and later CLI runs all hit one store),
* warm traces can travel between machines through an ``ArtifactStore``
  with the generic cache helpers
  (:func:`repro.experiments.remotestore.push_cache_entries` /
  ``pull_cache_entries`` with ``prefix="traces"``; fleet workers sync
  only their sweep-cache entries), and
* the prediction service's warm tiers extend down into capture.

An entry holds the :class:`~repro.simmpi.trace.CompiledTrace` the
capture produced: a full recording, or a periodic capture (the
two-iteration recording, its tile count and the run's statistics),
stored untiled.  A hit is that trace again: the scalar replay and the
steady tier resolve a cached periodic run from the recording without
building the run's table, which only ``compile_trace()`` tiles.  A
periodic entry of a 100-iteration run is 2-3% of the tiled table's
bytes.

Each entry is a small pickled header — the fingerprint key, the stored
trace's per-rank statistics, traffic, captured return values, column
layout and tile count — followed by
the trace's compact event/send columns as raw bytes, each 8-byte
aligned.  A put streams the columns to disk from the arrays themselves,
without a joined copy of the entry.  The columns are byte-exact, so a
cache hit replays bit-identically to the capture that stored it, and
decoding them is a zero-copy view of the buffer the entry was read
into.  A corrupt, truncated or foreign entry — including one written by
a different format version — is a miss, never an error.

Keys are built by :meth:`~repro.sweep3d.driver.SimulationPlan.
trace_fingerprint`: deck shape + decomposition + processor/topology
models + capture-relevant config, and deliberately *not* the machine
name or noise parameters — a trace is a pattern, shared by every noise
seed and by presets that alias the same models.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

from repro.diskio import DirectoryStore
from repro.simmpi.trace import CompiledTrace

#: Format marker stored with every entry; bump to invalidate old caches.
#: Format 6 stores every entry as one trace and its tile count (format 5
#: kept a periodic capture's recording totals beside the run's).
_TRACE_CACHE_VERSION = 6

#: Every column starts at a multiple of this many bytes of the payload.
_ALIGN = 8

#: Bytes of the little-endian header length that opens each payload.
_HEADER_LENGTH_BYTES = 8


def _aligned(size: int) -> int:
    return -(-size // _ALIGN) * _ALIGN


class TraceDiskCache(DirectoryStore):
    """A directory of serialised compiled traces keyed by fingerprint.

    Shares :class:`~repro.diskio.DirectoryStore`'s contract: atomic
    writes, verified reads, lock-guarded hit/miss/store stats,
    ``prune``/``clear`` bounding and safe concurrent sharing across
    processes.
    """

    suffix = ".trace"
    _decode_errors = (pickle.PickleError, EOFError, AttributeError,
                      ImportError, TypeError)

    def _encode(self, key: tuple, trace: CompiledTrace) -> list:
        columns = trace.columns()
        layout = tuple((name, column.dtype.str, len(column))
                       for name, column in columns.items())
        header = pickle.dumps(
            (_TRACE_CACHE_VERSION, key, trace.nranks,
             trace._messages_sent, trace._bytes_sent,
             trace._messages_received, trace._bytes_received,
             trace._traffic, trace._return_values, layout, trace.tiles),
            protocol=pickle.HIGHEST_PROTOCOL)
        # The columns go out as they are, each after its padding: the
        # store writes the chunks in turn, copying none.
        chunks = [len(header).to_bytes(_HEADER_LENGTH_BYTES, "little"), header]
        size = _HEADER_LENGTH_BYTES + len(header)
        for column in columns.values():
            chunks.append(bytes(_aligned(size) - size))
            chunks.append(np.ascontiguousarray(column))
            size = _aligned(size) + column.nbytes
        return chunks

    def _decode(self, data: bytearray, key: tuple) -> CompiledTrace:
        end = _HEADER_LENGTH_BYTES + int.from_bytes(
            data[:_HEADER_LENGTH_BYTES], "little")
        header = pickle.loads(data[_HEADER_LENGTH_BYTES:end])
        if header[:2] != (_TRACE_CACHE_VERSION, key):
            # Format change or (astronomically unlikely) digest collision.
            raise ValueError("stale or foreign trace-cache entry")
        (nranks, messages_sent, bytes_sent, messages_received,
         bytes_received, traffic, return_values, layout, tiles) = header[2:]
        columns = {}
        for name, dtype, length in layout:
            # Views of ``data``: no copy, writable like a fresh capture.
            columns[name] = np.frombuffer(data, dtype=dtype, count=length,
                                          offset=_aligned(end))
            end = _aligned(end) + columns[name].nbytes
        return CompiledTrace(
            nranks=nranks,
            messages_sent=messages_sent,
            bytes_sent=bytes_sent,
            messages_received=messages_received,
            bytes_received=bytes_received,
            traffic=traffic,
            return_values=return_values,
            tiles=tiles,
            **columns,
        )


def trace_cache_for(path: "str | Any") -> TraceDiskCache:
    """Coerce ``path`` (str/Path/cache) into a :class:`TraceDiskCache`."""
    if isinstance(path, TraceDiskCache):
        return path
    return TraceDiskCache(path)
