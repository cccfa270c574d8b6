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

An entry holds what the capture produced: a full
:class:`~repro.simmpi.trace.CompiledTrace` (a full recording), or a
:class:`~repro.simmpi.capture.PeriodicCapture` (the short probe, its
period, the tile count and the run's statistics), stored untiled.  A hit
is that value again: the steady tier resolves a cached periodic run from
the probe without building the run's table, and a replay tiles it as it
would a fresh capture.  A probe entry is a few per cent of the tiled
table's bytes.

Each entry is a small pickled header — the fingerprint key, the stored
trace's per-rank statistics, traffic, captured return values and column
layout, plus a capture's period, tile count and run totals — followed by
the trace's compact event/send columns as raw bytes, each 8-byte
aligned.  The columns are byte-exact, so a cache hit replays
bit-identically to the capture that stored it, and decoding them is a
zero-copy view of the buffer the entry was read into.  A corrupt,
truncated or foreign entry — including one written by a different
format version — is a miss, never an error.

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
from repro.simmpi.capture import PeriodicCapture
from repro.simmpi.trace import CompiledTrace

#: Format marker stored with every entry; bump to invalidate old caches.
#: Format 3 stores a periodic capture's probe untiled.
_TRACE_CACHE_VERSION = 3

#: Event/send columns persisted as raw arrays, in constructor order.
_COLUMNS = ("event_kind", "event_rank", "event_slot", "event_aux",
            "base", "noise_kind", "send_eager", "send_rank",
            "event_peer", "event_tag", "event_nbytes")

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

    def _encode(self, key: tuple,
                capture: CompiledTrace | PeriodicCapture) -> bytes:
        periodic = None
        trace = capture
        if isinstance(capture, PeriodicCapture):
            trace = capture.probe
            periodic = (capture.info, capture.tiles, capture.messages_sent,
                        capture.bytes_sent, capture.messages_received,
                        capture.bytes_received, capture.traffic,
                        capture.return_values)
        columns = (trace.event_kind, trace.event_rank, trace.event_slot,
                   trace.event_aux, trace._base, trace._noise_kind,
                   trace._send_eager_arr, trace._send_rank_arr,
                   trace.event_peer, trace.event_tag, trace.event_nbytes)
        layout = tuple((name, column.dtype.str, len(column))
                       for name, column in zip(_COLUMNS, columns))
        header = pickle.dumps(
            (_TRACE_CACHE_VERSION, key, trace.nranks,
             trace._messages_sent, trace._bytes_sent,
             trace._messages_received, trace._bytes_received,
             trace._traffic, trace._return_values, layout, periodic),
            protocol=pickle.HIGHEST_PROTOCOL)
        parts = [len(header).to_bytes(_HEADER_LENGTH_BYTES, "little"), header]
        size = _HEADER_LENGTH_BYTES + len(header)
        for column in columns:
            parts.append(bytes(_aligned(size) - size))
            parts.append(column.tobytes())
            size = _aligned(size) + column.nbytes
        return b"".join(parts)

    def _decode(self, data: bytearray,
                key: tuple) -> CompiledTrace | PeriodicCapture:
        end = _HEADER_LENGTH_BYTES + int.from_bytes(
            data[:_HEADER_LENGTH_BYTES], "little")
        header = pickle.loads(data[_HEADER_LENGTH_BYTES:end])
        if header[:2] != (_TRACE_CACHE_VERSION, key):
            # Format change or (astronomically unlikely) digest collision.
            raise ValueError("stale or foreign trace-cache entry")
        (nranks, messages_sent, bytes_sent, messages_received,
         bytes_received, traffic, return_values, layout,
         periodic) = header[2:]
        columns = {}
        for name, dtype, length in layout:
            # Views of ``data``: no copy, writable like a fresh capture.
            columns[name] = np.frombuffer(data, dtype=dtype, count=length,
                                          offset=_aligned(end))
            end = _aligned(end) + columns[name].nbytes
        trace = CompiledTrace(
            nranks=nranks,
            messages_sent=messages_sent,
            bytes_sent=bytes_sent,
            messages_received=messages_received,
            bytes_received=bytes_received,
            traffic=traffic,
            return_values=return_values,
            **columns,
        )
        if periodic is None:
            return trace
        return PeriodicCapture(trace, *periodic)


def trace_cache_for(path: "str | Any") -> TraceDiskCache:
    """Coerce ``path`` (str/Path/cache) into a :class:`TraceDiskCache`."""
    if isinstance(path, TraceDiskCache):
        return path
    return TraceDiskCache(path)
