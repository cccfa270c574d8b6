"""Tests for the persistent compiled-trace cache (repro.simmpi.tracecache).

The cache must be byte-exact (a hit replays bit-identically to the
capture that stored it), verified on read (corrupt/foreign/stale entries
are misses, never errors) and safe to share: across plans and across
processes.
"""

import pickle

import numpy as np
import pytest

from repro.diskio import _checksum, write_atomic
from repro.machines.presets import get_machine
from repro.simmpi import tracecache
from repro.simmpi.capture import tile_trace
from repro.simmpi.trace import CompiledTrace
from repro.simmpi.tracecache import TraceDiskCache, trace_cache_for
from repro.simnet.noise import NoiseModel
from repro.sweep3d.driver import SimulationPlan
from repro.sweep3d.input import Sweep3DInput


@pytest.fixture(scope="module")
def machine():
    return get_machine("steady")


@pytest.fixture(scope="module")
def plan_parts(machine):
    deck = Sweep3DInput(it=10, jt=10, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=20)
    plan = SimulationPlan(deck, 2, 2, machine.topology,
                          processor=machine.processor)
    return plan, plan.compile_trace()


def test_roundtrip_is_byte_exact(tmp_path, plan_parts):
    plan, trace = plan_parts
    cache = TraceDiskCache(tmp_path)
    key = plan.trace_fingerprint()
    cache.put(key, trace)
    loaded = cache.get(key)
    assert loaded is not None
    for column in ("event_kind", "event_rank", "event_slot", "event_aux",
                   "event_peer", "event_tag", "event_nbytes"):
        got, want = getattr(loaded, column), getattr(trace, column)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.flags.writeable
    assert loaded._traffic == trace._traffic
    assert loaded._return_values == trace._return_values
    noise = NoiseModel(seed=3)
    assert loaded.replay(noise.reseeded(3)).elapsed_time \
        == trace.replay(noise.reseeded(3)).elapsed_time


def test_miss_and_stats_accounting(tmp_path, plan_parts):
    plan, trace = plan_parts
    cache = TraceDiskCache(tmp_path)
    key = plan.trace_fingerprint()
    assert cache.get(key) is None
    cache.put(key, trace)
    assert cache.get(key) is not None
    snapshot = cache.stats_snapshot()
    assert (snapshot.hits, snapshot.misses, snapshot.stores) == (1, 1, 1)
    assert len(cache) == 1
    assert cache.total_bytes() > 0


def test_corrupt_entry_is_a_miss(tmp_path, plan_parts):
    plan, trace = plan_parts
    cache = TraceDiskCache(tmp_path)
    key = plan.trace_fingerprint()
    cache.put(key, trace)
    (entry,) = cache.entries()
    entry.write_bytes(b"not an npz archive")
    assert cache.get(key) is None
    truncated = TraceDiskCache(tmp_path)
    cache.put(key, trace)
    (entry,) = cache.entries()
    entry.write_bytes(entry.read_bytes()[:40])
    assert truncated.get(key) is None


def test_foreign_key_is_a_miss(tmp_path, plan_parts, machine):
    plan, trace = plan_parts
    cache = TraceDiskCache(tmp_path)
    cache.put(plan.trace_fingerprint(), trace)
    other_deck = Sweep3DInput(it=10, jt=10, kt=8, mk=4, mmi=3, sn=6,
                              max_iterations=24)
    other = SimulationPlan(other_deck, 2, 2, machine.topology,
                           processor=machine.processor)
    assert cache.get(other.trace_fingerprint()) is None


def test_prune_and_clear(tmp_path, plan_parts):
    plan, trace = plan_parts
    cache = TraceDiskCache(tmp_path)
    cache.put(plan.trace_fingerprint(), trace)
    cache.put(plan.trace_fingerprint() + ("other",), trace)
    assert len(cache) == 2
    result = cache.prune(max_entries=1)
    assert result.removed == 1
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


def test_trace_cache_for_coercion(tmp_path):
    cache = trace_cache_for(tmp_path)
    assert isinstance(cache, TraceDiskCache)
    assert trace_cache_for(cache) is cache


def test_fingerprint_ignores_machine_name_and_noise(machine):
    deck = Sweep3DInput(it=10, jt=10, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=20)
    plan = SimulationPlan(deck, 2, 2, machine.topology,
                          processor=machine.processor)
    key = plan.trace_fingerprint()
    assert machine.topology.name not in repr(key)
    assert key == plan.trace_fingerprint()  # stable
    other = SimulationPlan(deck, 1, 2, machine.topology,
                           processor=machine.processor)
    assert other.trace_fingerprint() != key


def _columns(trace):
    return tuple(trace.columns().values())


def _layout(trace):
    return tuple((name, column.dtype.str, len(column))
                 for name, column in trace.columns().items())


def _joined(header, trace):
    """One in-memory payload: the header, then each column aligned."""
    parts = [len(header).to_bytes(8, "little"), header]
    size = 8 + len(header)
    for column in _columns(trace):
        parts.append(bytes(tracecache._aligned(size) - size))
        parts.append(column.tobytes())
        size = tracecache._aligned(size) + column.nbytes
    return b"".join(parts)


def format_2_payload(key, trace):
    """An entry as format 2 wrote it: always the full table, no capture."""
    return _joined(pickle.dumps(
        (2, key, trace.nranks, trace._messages_sent, trace._bytes_sent,
         trace._messages_received, trace._bytes_received, trace._traffic,
         trace._return_values, _layout(trace))), trace)


def joined_payload(key, trace, version=6):
    """An entry in format 6's layout, marked ``version`` and joined in
    memory, as puts wrote it before they streamed the columns."""
    return _joined(pickle.dumps(
        (version, key, trace.nranks, trace._messages_sent, trace._bytes_sent,
         trace._messages_received, trace._bytes_received, trace._traffic,
         trace._return_values, _layout(trace), trace.tiles),
        protocol=pickle.HIGHEST_PROTOCOL), trace)


def test_format_2_entry_is_a_miss(tmp_path, plan_parts):
    plan, trace = plan_parts
    cache = TraceDiskCache(tmp_path)
    key = plan.trace_fingerprint()
    payload = format_2_payload(key, trace)
    write_atomic(cache._entry_path(key), _checksum(payload), payload)
    assert cache.get(key) is None
    assert cache.stats_snapshot().misses == 1


@pytest.fixture(scope="module")
def periodic_parts(machine):
    deck = Sweep3DInput(it=10, jt=10, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=20)
    plan = SimulationPlan(deck, 2, 2, machine.topology,
                          processor=machine.processor)
    capture = plan._held_capture()
    assert capture.tiles == 18
    return plan, capture


def _assert_same_table(got, want):
    for a, b in zip(_columns(got), _columns(want)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.tiles == want.tiles
    assert (got._messages_sent, got._bytes_sent, got._messages_received,
            got._bytes_received, got._traffic, got._return_values) \
        == (want._messages_sent, want._bytes_sent, want._messages_received,
            want._bytes_received, want._traffic, want._return_values)


def test_periodic_capture_roundtrip(tmp_path, periodic_parts):
    plan, capture = periodic_parts
    cache = TraceDiskCache(tmp_path)
    key = plan.trace_fingerprint()
    cache.put(key, capture)
    loaded = cache.get(key)
    _assert_same_table(loaded, capture)
    assert repr(loaded.replay()) == repr(capture.replay())
    assert repr(tile_trace(loaded).replay()) \
        == repr(tile_trace(capture).replay())
    # The entry is the two recorded iterations, not the table.
    assert loaded.n_events * (2 + capture.tiles) \
        == 2 * tile_trace(capture).n_events
    assert cache.total_bytes() < tile_trace(capture).nbytes


def test_seven_iteration_periodic_entry_roundtrip(tmp_path, machine):
    # Two recorded iterations and five tiles.
    deck = Sweep3DInput(it=10, jt=10, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=7)
    plans = [SimulationPlan(deck, 2, 2, machine.topology,
                            processor=machine.processor,
                            trace_cache=TraceDiskCache(tmp_path))
             for _ in range(2)]
    stored = plans[0]._held_capture()
    assert plans[0].last_capture.mode == "periodic"
    assert stored.tiles == 5
    loaded = plans[1]._held_capture()
    assert plans[1].last_capture.mode == "cache"
    assert loaded.tiles == 5
    _assert_same_table(loaded, stored)
    _assert_same_table(plans[1].compile_trace(), plans[1]._record_trace())


@pytest.mark.parametrize("periodic", [True, False])
def test_format_5_entry_is_a_miss(tmp_path, machine, periodic):
    # An entry marked format 5 is a miss whatever it holds (that format
    # stored a periodic capture's recording totals beside the run's); the
    # plan captures the run anew and stores format 6.
    deck = Sweep3DInput(it=10, jt=10, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=10)
    plan = SimulationPlan(deck, 2, 2, machine.topology,
                          processor=machine.processor,
                          trace_cache=TraceDiskCache(tmp_path))
    old = SimulationPlan(deck, 2, 2, machine.topology,
                         processor=machine.processor)
    key = plan.trace_fingerprint()
    payload = joined_payload(
        key, old._held_capture() if periodic else old._record_trace(),
        version=5)
    write_atomic(plan.trace_cache._entry_path(key), _checksum(payload),
                 payload)
    run = plan.run(mode="steady")
    assert plan.last_capture.mode == "periodic"
    assert plan.last_execution == "steady"
    assert plan.trace_cache.stats_snapshot().misses == 1
    assert TraceDiskCache(tmp_path).get(key).tiles == 8
    assert repr(run.simulation) == repr(old.compile_trace().replay())


def test_a_full_recording_entry_is_a_hit(tmp_path, machine):
    # A run recorded in full is stored as its table and served from it;
    # the steady tier refuses it and the plan replays.
    deck = Sweep3DInput(it=10, jt=10, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=2)
    plans = [SimulationPlan(deck, 2, 2, machine.topology,
                            processor=machine.processor,
                            trace_cache=TraceDiskCache(tmp_path))
             for _ in range(2)]
    runs = [plan.run(mode="steady") for plan in plans]
    assert [plan.last_capture.mode for plan in plans] == ["full", "cache"]
    assert isinstance(plans[1]._capture, CompiledTrace)
    _assert_same_table(plans[1]._capture, plans[0]._capture)
    assert [plan.last_execution for plan in plans] == ["replay", "replay"]
    assert repr(runs[0].simulation) == repr(runs[1].simulation)


def test_truncated_entry_is_a_miss(tmp_path, periodic_parts):
    plan, capture = periodic_parts
    cache = TraceDiskCache(tmp_path)
    key = plan.trace_fingerprint()
    cache.put(key, capture)
    (entry,) = cache.entries()
    whole = entry.read_bytes()
    entry.write_bytes(whole[:-64])
    assert cache.get(key) is None
    # A truncated payload under a valid checksum is a miss too.
    payload = whole[4:-64]
    write_atomic(entry, _checksum(payload), payload)
    assert cache.get(key) is None
    assert cache.stats_snapshot().misses == 2


def test_streamed_entries_equal_the_joined_encoding(tmp_path, plan_parts,
                                                    periodic_parts):
    # A run's table and a periodic capture's recording, each put from its
    # columns, write the bytes the joined format-6 payload framed.
    full = SimulationPlan(
        Sweep3DInput(it=10, jt=10, kt=8, mk=4, mmi=3, sn=6,
                     max_iterations=3), 2, 3, plan_parts[0].topology,
        processor=plan_parts[0].processor)
    for plan, capture in ((full, full.compile_trace()), periodic_parts):
        cache = TraceDiskCache(tmp_path / str(plan.nranks))
        key = plan.trace_fingerprint()
        cache.put(key, capture)
        payload = joined_payload(key, capture)
        assert cache._entry_path(key).read_bytes() \
            == _checksum(payload) + payload
