"""Wall-clock phase accounting for the execution tiers.

The simulation pipeline spends its host-side wall-clock in a handful of
distinct phases — capturing a trace, replaying it, attempting the steady
tier, or driving the reference engine — and knowing *where* a study's
time went is what directs the next optimisation (trace capture was found
to dominate cold sweeps exactly this way).  :class:`PhaseTimer` is the
tiny shared accumulator: each :class:`~repro.sweep3d.driver.
SimulationPlan` owns one, the scenario executor snapshots it around
every evaluation, and the per-phase seconds flow through
:class:`~repro.experiments.backends.SimMeasurement` into study results
and ``manifest.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase.

    Not thread-safe — each timer belongs to one plan evaluated by one
    thread at a time.
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        """Context manager adding the elapsed wall-clock to ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, elapsed: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def snapshot(self) -> dict[str, float]:
        """A copy of the per-phase totals so far."""
        return dict(self.seconds)

    def since(self, before: dict[str, float]) -> dict[str, float]:
        """Per-phase seconds accumulated after ``before`` was snapshotted."""
        return {name: total - before.get(name, 0.0)
                for name, total in self.seconds.items()
                if total - before.get(name, 0.0) > 0.0}


def merge_phases(into: dict[str, float],
                 extra: dict[str, float]) -> dict[str, float]:
    """Accumulate ``extra``'s per-phase seconds into ``into`` (returned)."""
    for name, value in extra.items():
        if value:
            into[name] = into.get(name, 0.0) + float(value)
    return into
