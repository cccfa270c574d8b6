"""``smoke``: the paper-regeneration path, cold then warm.

A fresh process runs ``repro run <every study> --smoke --cache-dir C --out
A1`` against an empty ``C``; a second fresh process repeats it against the
now-full cache, writing ``A2``.  The seed permutes the study order (the
same work in a different order).  Correctness: ``A2`` matches ``A1``, and
every pass's ``A1`` matches the first pass's.
"""

from __future__ import annotations

import random

from common import Bench, Pass, merge_layers, probe_setup, remove, run_child


class Smoke:
    name = "smoke"

    def __init__(self, bench: Bench):
        self.bench = bench
        import repro.api as api
        self.api = api
        studies = api.study_names()
        random.Random(bench.seed).shuffle(studies)
        self.studies = studies
        self.reference = None

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        return probe_setup(self.bench, repeats)

    def _regenerate(self, cache, out, traced):
        args = ["run", *self.studies, "--smoke", "--cache-dir", str(cache),
                "--out", str(out)]
        return run_child(self.bench, "cli", args, traced=traced,
                         workload_process=True)

    def run_pass(self, traced: bool) -> Pass:
        # The cache path is part of every spec (and of its hash), so each
        # pass reuses the same, emptied, directory.
        root = self.bench.workdir / "smoke"
        remove(root)
        cache, cold_out, warm_out = root / "cache", root / "a1", root / "a2"
        cold_s, cold_cpu, cold = self._regenerate(cache, cold_out, traced)
        warm_s, warm_cpu, warm = self._regenerate(cache, warm_out, traced)
        checks = [self.api.compare_artifact_dirs(warm_out, cold_out)]
        if self.reference is None:
            self.reference = cold_out.rename(self.bench.workdir / "reference")
        else:
            checks.append(self.api.compare_artifact_dirs(cold_out,
                                                         self.reference))
        result = Pass(wall_s=cold_s + warm_s, cpu_s=cold_cpu + warm_cpu,
                      attempted=len(checks),
                      failed=sum(1 for diffs in checks if diffs),
                      details={"smoke_cold_s": cold_s, "smoke_warm_s": warm_s},
                      errors=[diff for diffs in checks for diff in diffs])
        if traced:
            result.layers = merge_layers(cold["trace"], warm["trace"])
        return result

    def close(self) -> None:
        pass
