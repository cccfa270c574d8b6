"""``fleet``: the file-lease work-stealing fleet on a warm sweep cache.

``run_local_fleet`` runs all 11 smoke specs (21 one-unit shards) with 2
worker threads and a ``LocalDirStore`` artifact store, against a sweep cache
and store filled in set-up by a cold pass.  With the cache warm, most of a
pass goes to leases, polling, store round trips and the merge.  The seed permutes the
spec order.  Correctness: the merged rows of every study equal an unsharded
``StudyRunner`` run.
"""

from __future__ import annotations

import random

from common import Bench, Meter, Pass, canonical, remove

import tracing

WORKERS = 2


class Fleet:
    name = "fleet"

    def __init__(self, bench: Bench):
        self.bench = bench
        import repro.api as api
        self.api = api
        specs = api.study_names()
        random.Random(bench.seed).shuffle(specs)
        self.specs = specs
        self.cache = self.store = None
        self.reference = None

    def _fleet(self) -> tuple[float, float, object, int]:
        """One fleet pass in a fresh queue directory; returns (wall, CPU
        seconds, outcome, claims)."""
        from repro.experiments.fleet import FleetEventLog
        fleet_dir = self.bench.tmpdir("fleet-")
        meter = Meter()
        outcome = self.api.run_local_fleet(
            self.specs, n_workers=WORKERS, smoke=True, fleet_dir=fleet_dir,
            store=self.api.LocalDirStore(self.store), cache_dir=str(self.cache))
        wall, cpu = meter.stop()
        events = FleetEventLog(fleet_dir / "events.jsonl").events()
        remove(fleet_dir)
        claims = sum(1 for event in events if event.get("event") == "claimed")
        return wall, cpu, outcome, claims

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        """Cold passes on an empty cache and store; the last one's cache and
        store stay for the run.  (A fresh store per pass would make every
        warm pass re-push cache entries, an amount that depends on which
        worker finishes first.)"""
        times = []
        for _ in range(repeats):
            for path in (self.cache, self.store):
                if path is not None:
                    remove(path)
            self.cache = self.bench.tmpdir("fleet-cache-")
            self.store = self.bench.tmpdir("fleet-store-")
            times.append(self._fleet()[:2])
        results = self.api.StudyRunner().run_many(self.specs, smoke=True)
        self.reference = {result.study: canonical(result.to_dict()["rows"])
                          for result in results}
        return times

    def run_pass(self, traced: bool) -> Pass:
        tracer = restore = None
        if traced:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
        try:
            wall, cpu, outcome, claims = self._fleet()
        finally:
            if restore is not None:
                restore()
        merged = {result.study: canonical(result.to_dict()["rows"])
                  for result in outcome.results}
        wrong = sorted(study for study, rows in self.reference.items()
                       if merged.get(study) != rows)
        result = Pass(wall_s=wall, cpu_s=cpu, attempted=len(self.reference),
                      failed=len(wrong),
                      details={"fleet_s": wall},
                      errors=[f"{study}: merged rows differ from the "
                              "unsharded run" for study in wrong])
        if tracer is not None:
            layers = tracing.layer_values(tracer.snapshot())
            layers["fleet.claims"] = claims
            layers["fleet.reassignments"] = outcome.reassignments
            layers["fleet.steals"] = outcome.steals
            layers["fleet.idle_s"] = (WORKERS * wall
                                      - layers.get("fleet.unit_s", 0.0)
                                      - layers["fleet.store_s"])
            result.layers = layers
        return result

    def close(self) -> None:
        pass
