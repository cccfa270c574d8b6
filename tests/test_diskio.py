"""Corruption tests for the shared directory-store contract (repro.diskio).

Both persistent caches promise that a corrupt entry is a miss, never an
error and never a wrong value.  A seeded run of truncations, bit flips and
zeroed spans of one stored entry checks that promise for each codec.
"""

import operator
import random

import numpy as np
import pytest

from repro.experiments.diskcache import SweepDiskCache
from repro.machines.presets import get_machine
from repro.simmpi.tracecache import TraceDiskCache
from repro.sweep3d.driver import SimulationPlan
from repro.sweep3d.input import Sweep3DInput

#: Mutations tried per store.
MUTATIONS = 600

#: Columns and per-rank tables a stored trace must reproduce exactly.
TRACE_FIELDS = ("event_kind", "event_rank", "event_slot", "event_aux",
                "event_peer", "event_tag", "event_nbytes", "_base",
                "_noise_kind", "_send_eager_arr", "_send_rank_arr")


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One truncation, single-bit flip or zeroed span of ``data``."""
    choice = rng.randrange(3)
    if choice == 0:
        return data[:rng.randrange(len(data))]
    position = rng.randrange(len(data))
    if choice == 1:
        flipped = data[position] ^ (1 << rng.randrange(8))
        return data[:position] + bytes([flipped]) + data[position + 1:]
    span = rng.randint(1, 64)
    return data[:position] + bytes(span) + data[position + span:]


def same_trace(got, want) -> bool:
    return (got.nranks == want.nranks
            and all(np.array_equal(getattr(got, name), getattr(want, name))
                    for name in TRACE_FIELDS)
            and got._traffic == want._traffic
            and got._return_values == want._return_values)


def small_trace():
    machine = get_machine("pentium3-myrinet")
    deck = Sweep3DInput(it=4, jt=4, kt=4, mk=2, mmi=3, sn=6,
                        max_iterations=2)
    plan = SimulationPlan(deck, 2, 2, machine.topology,
                          processor=machine.processor)
    return plan.compile_trace()


def sweep_value():
    return {"elapsed": 1.5, "ranks": (0.25, 0.5), "label": "4x4"}


@pytest.mark.parametrize("store_type, make_value, same", [
    (SweepDiskCache, sweep_value, operator.eq),
    (TraceDiskCache, small_trace, same_trace),
])
def test_mutated_entries_are_misses_or_the_stored_value(tmp_path, store_type,
                                                         make_value, same):
    value = make_value()
    store = store_type(tmp_path)
    key = ("mutation", store_type.__name__)
    store.put(key, value)
    entry = store._entry_path(key)
    original = entry.read_bytes()
    assert same(store.get(key), value)

    rng = random.Random(20061017)
    for _ in range(MUTATIONS):
        entry.write_bytes(mutate(original, rng))
        got = store.get(key)
        assert got is None or same(got, value)
    snapshot = store.stats_snapshot()
    assert snapshot.hits + snapshot.misses == MUTATIONS + 1
    assert snapshot.misses > 0
