"""``sim64``: one 64-rank (8x8) modelled run, with and without noise.

Each pass runs four configurations on the validation deck, each on a
freshly built ``Machine`` and ``SimulationPlan`` with no trace disk cache:

* ``noisy``: pentium3-myrinet, 12 iterations, noise on (replay tier);
* ``modelled``: the same configuration with noise off (replay tier);
* ``steady``: the ``steady`` preset, 100 iterations, noise off (steady tier);
* ``samples``: ``noisy`` with ``samples=4`` (batched replay).

The seed picks the noise-seed offset.  Correctness: every elapsed time and
every rank's finish time is bit-identical to the reference engine tier,
computed once per seed (noisy runs) or once per program version
(noise-free runs) in a separate process.

``python3 perfbench/sim64.py noisy OUT OFFSET...`` writes the engine-tier
references for the given noise-seed offsets, and
``python3 perfbench/sim64.py fixed OUT`` those of the noise-free configs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

from common import ROOT, STATE, Bench, Meter, Pass, diff_snapshots, probe_setup

import tracing

ITERATIONS = 12
STEADY_ITERATIONS = 100
SAMPLES = 4
PX = PY = 8


def _deck(iterations: int):
    from repro.sweep3d.input import standard_deck
    return standard_deck("validation", px=PX, py=PY, max_iterations=iterations)


def _plan(machine_name: str, iterations: int):
    """A freshly built machine and plan (no memoised state, no disk cache)."""
    from repro.machines.presets import get_machine
    machine = get_machine(machine_name)
    return machine, machine.simulation_plan(_deck(iterations), PX, PY)


def signature(simulation) -> list[float]:
    """Elapsed time followed by every rank's finish time."""
    return [simulation.elapsed_time,
            *(rank.finish_time for rank in simulation.ranks)]


def engine_signatures(machine_name: str, iterations: int,
                      offsets: list[int | None]) -> list[list[float]]:
    """Reference-engine runs of one plan, one per noise-seed offset
    (``None``: noise off), each with a fresh noise model."""
    machine, plan = _plan(machine_name, iterations)
    return [signature(plan.run(
        noise=None if offset is None else machine.noise_model(offset),
        mode="engine").simulation) for offset in offsets]


def _source_digest() -> str:
    """Digest of the program's sources: noise-free references stay valid
    exactly as long as the program is unchanged."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _references(jobs: list[tuple]) -> list:
    """Run ``(path, kind, *args)`` reference jobs whose output is missing,
    in parallel processes; returns every job's payload."""
    processes = [subprocess.Popen([sys.executable, __file__, kind, str(path),
                                   *args])
                 for path, kind, *args in jobs if not path.exists()]
    for process in processes:
        if process.wait(timeout=170) != 0:
            raise RuntimeError("computing the engine references failed")
    return [json.loads(path.read_text()) for path, *_ in jobs]


class Sim64:
    name = "sim64"

    def __init__(self, bench: Bench):
        self.bench = bench
        self.offset = random.Random(bench.seed).randrange(1, 2 ** 20)
        #: Per-layer values of each configuration (last traced pass).
        self.config_layers: dict[str, dict[str, float]] = {}
        refs = STATE / "refs"
        refs.mkdir(parents=True, exist_ok=True)
        half = SAMPLES // 2
        self.fixed, first, second = _references([
            (refs / f"sim64-fixed-{_source_digest()}.json", "fixed"),
            *((bench.workdir / f"sim64-noisy-{part}.json", "noisy",
               *(str(self.offset + index) for index in indices))
              for part, indices in enumerate((range(half),
                                              range(half, SAMPLES))))])
        self.noisy = first + second

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        return probe_setup(self.bench, repeats)

    def _noisy(self):
        machine, plan = _plan("pentium3-myrinet", ITERATIONS)
        return signature(plan.run(noise=machine.noise_model(self.offset),
                                  mode="replay").simulation)

    def _modelled(self):
        machine, plan = _plan("pentium3-myrinet", ITERATIONS)
        return signature(plan.run(mode="replay").simulation)

    def _steady(self):
        machine, plan = _plan("steady", STEADY_ITERATIONS)
        return signature(plan.run(mode="steady").simulation)

    def _samples(self):
        machine, plan = _plan("pentium3-myrinet", ITERATIONS)
        sample_set = plan.run(noise=machine.noise_model(self.offset),
                              mode="replay", samples=SAMPLES)
        return [signature(sample_set.sample(index).simulation)
                for index in range(SAMPLES)]

    def run_pass(self, traced: bool) -> Pass:
        tracer = restore = None
        if traced:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
        try:
            runs = {"sim64_noisy_s": (self._noisy, self.noisy[0]),
                    "sim64_modelled_s": (self._modelled,
                                         self.fixed["modelled"]),
                    "sim64_steady_s": (self._steady, self.fixed["steady"]),
                    "sim64_samples_s": (self._samples, self.noisy)}
            result = Pass(wall_s=0.0, attempted=len(runs))
            for metric, (fn, expected) in runs.items():
                before = tracer.snapshot() if tracer is not None else None
                meter = Meter()
                got = fn()
                seconds, cpu = meter.stop()
                result.details[metric] = seconds
                result.wall_s += seconds
                result.cpu_s += cpu
                if got != expected:
                    result.failed += 1
                    result.errors.append(f"{metric}: result differs from "
                                         "the engine reference")
                if tracer is not None:
                    self.config_layers[metric] = tracing.layer_values(
                        diff_snapshots(tracer.snapshot(), before))
        finally:
            if restore is not None:
                restore()
        if tracer is not None:
            result.layers = tracing.layer_values(tracer.snapshot())
        return result

    def close(self) -> None:
        pass


def main(argv: list[str]) -> int:
    tracing.add_source_path()
    kind, out = argv[0], argv[1]
    if kind == "fixed":
        payload = {
            "modelled": engine_signatures("pentium3-myrinet", ITERATIONS,
                                          [None])[0],
            "steady": engine_signatures("steady", STEADY_ITERATIONS,
                                        [None])[0],
        }
    else:
        payload = engine_signatures("pentium3-myrinet", ITERATIONS,
                                    [int(offset) for offset in argv[2:]])
    tmp = f"{out}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
