"""Benchmark: periodic trace capture vs the full O(events) recorder.

``test_periodic_capture_speed_64rank`` is the acceptance gate of the
periodic capture tier: on the 64-rank x 100-iteration modelled
configuration where trace capture used to dominate cold sweeps,
``SimulationPlan.compile_trace()`` — which records two iterations,
proves that the rest repeat the second and tiles them — must be at
least 10x faster than the full recorder pass, **after** the result is
asserted bit-identical down to the last event column, per-rank counter,
traffic tally and synthesized return value.  Identity comes first: a
fast wrong trace must fail the gate before any timing runs.

``test_trace_cache_makes_recapture_free`` locks the persistence layer:
a second process (modelled as a fresh cache handle and fresh plan over
the same directory) must serve the same configuration from the
fingerprint-keyed trace cache without recording a single event, and
faster than even the periodic pass.

Both sides record from op bodies harvested once per capture from one
iteration of the rank generator.  Periodic capture records two
iterations and proves the other 98
(``repro.simmpi.capture.extend_recording``).  On a 2-vCPU VM (64 ranks,
100 iterations, ~480k events) the full recorder takes 0.6-1.4 s and
periodic capture 39-71 ms (12-19x at the first attempt), of which 12-26
ms records the two iterations; the gate prints that split.  A warm
cache hit is ~20-25 ms: a checksummed read of the recording's raw
columns, then tiling them into the table.
"""

from __future__ import annotations

import time

import numpy as np
from gate_report import record_gate

from repro.machines.presets import get_machine
from repro.simmpi.trace import TraceRecorder
from repro.simmpi.tracecache import TraceDiskCache
from repro.simnet.noise import NoiseModel
from repro.sweep3d.driver import SimulationPlan
from repro.sweep3d.input import Sweep3DInput

#: The gate configuration: 8x8 ranks, 100 source iterations (~480k events).
RANKS = (8, 8)
ITERATIONS = 100

TRACE_COLUMNS = ("event_kind", "event_rank", "event_slot", "event_aux",
                 "event_peer", "event_tag", "event_nbytes",
                 "_base", "_noise_kind", "_send_eager_arr", "_send_rank_arr")


def _deck():
    return Sweep3DInput(it=16, jt=16, kt=10, mk=10, mmi=3, sn=6,
                        max_iterations=ITERATIONS)


def _plan(machine, **kwargs):
    px, py = RANKS
    return SimulationPlan(_deck(), px, py, machine.topology,
                          processor=machine.processor, **kwargs)


def _assert_identical(got, want):
    assert got.nranks == want.nranks
    for column in TRACE_COLUMNS:
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column
    assert got._messages_sent == want._messages_sent
    assert got._bytes_sent == want._bytes_sent
    assert got._messages_received == want._messages_received
    assert got._bytes_received == want._bytes_received
    assert got._traffic == want._traffic
    assert got._return_values == want._return_values


def test_periodic_capture_speed_64rank(monkeypatch):
    """Periodic capture is >=10x the full recorder, bit-identically."""
    machine = get_machine("steady")
    plan = _plan(machine)
    tiled = plan.compile_trace()
    info = plan.last_capture
    assert info.mode == "periodic", info.reason
    assert info.tiles == ITERATIONS - 2
    full = plan._record_trace()

    # Identity first — the timing below is meaningless otherwise.
    _assert_identical(tiled, full)
    assert tiled.replay(NoiseModel.disabled()).elapsed_time \
        == full.replay(NoiseModel.disabled()).elapsed_time
    noise = NoiseModel(seed=5)
    assert tiled.replay(noise.reseeded(5)).elapsed_time \
        == full.replay(noise.reseeded(5)).elapsed_time

    # The periodic side splits into its two-iteration recording and the
    # rest (plan build, body harvest, the extension, tiling and checks).
    recorded = []
    record = TraceRecorder.record

    def timed_record(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return record(self, *args, **kwargs)
        finally:
            recorded.append(time.perf_counter() - start)

    monkeypatch.setattr(TraceRecorder, "record", timed_record)
    best_speedup = 0.0
    for _ in range(2):                          # one retry guards against noise
        start = time.perf_counter()
        reference = _plan(machine)
        reference._record_trace()
        full_elapsed = time.perf_counter() - start
        recorded.clear()
        start = time.perf_counter()
        candidate = _plan(machine)
        candidate.compile_trace()
        periodic_elapsed = time.perf_counter() - start
        assert candidate.last_capture.mode == "periodic"
        best_speedup = max(best_speedup, full_elapsed / periodic_elapsed)
        if best_speedup >= 10.0:
            break
    two_record = sum(recorded)
    px, py = RANKS
    report = (f"{px * py}-rank x{ITERATIONS}-iteration capture: full "
              f"{full_elapsed:.2f} s, periodic {periodic_elapsed * 1e3:.0f} ms "
              f"(two-iteration record {two_record * 1e3:.0f} ms, rest "
              f"{(periodic_elapsed - two_record) * 1e3:.0f} ms), "
              f"speedup {best_speedup:.1f}x")
    print(f"\n{report} ({info.describe()})")
    record_gate("periodic_capture_vs_full_64rank", best_speedup, 10.0,
                details={"full_ms": full_elapsed * 1e3,
                         "periodic_ms": periodic_elapsed * 1e3,
                         "periodic_record_ms": two_record * 1e3,
                         "periodic_rest_ms":
                             (periodic_elapsed - two_record) * 1e3})
    assert best_speedup >= 10.0, report


def test_trace_cache_makes_recapture_free(tmp_path):
    """A fresh process re-captures from the cache without recording."""
    machine = get_machine("steady")
    cold = _plan(machine, trace_cache=TraceDiskCache(tmp_path))
    stored = cold.compile_trace()
    assert cold.last_capture.mode == "periodic"

    warm_cache = TraceDiskCache(tmp_path)       # fresh handle = new process
    warm = _plan(machine, trace_cache=warm_cache)
    start = time.perf_counter()
    loaded = warm.compile_trace()
    warm_elapsed = time.perf_counter() - start
    assert warm.last_capture.mode == "cache"
    snapshot = warm_cache.stats_snapshot()
    assert (snapshot.hits, snapshot.misses) == (1, 0)
    _assert_identical(loaded, stored)

    speedup = cold.last_capture.capture_s / warm_elapsed
    print(f"\nwarm trace-cache capture: {warm_elapsed * 1e3:.1f} ms vs "
          f"periodic {cold.last_capture.capture_s * 1e3:.0f} ms "
          f"({speedup:.1f}x)")
    record_gate("trace_cache_warm_vs_periodic", speedup, 1.0)
    assert speedup >= 1.0
