"""The repository benchmark: four canonical workloads, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload smoke --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics with no instrumentation
installed; ``--trace 1`` first runs untraced passes for half the time, then
traced passes, and reports the per-layer metrics plus the tracing overhead.
Every workload checks its outputs on every pass.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it name every headline metric with its unit and sample
count, and the full record (host, seed, per-pass values) is written to
``.perfbench/results/``.  See METRICS.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if not (HERE.parent / "src" / "repro" / "api.py").is_file():
    sys.stderr.write("perfbench: no program sources (src/repro) next to "
                     "the benchmark; run it from a full checkout\n")
    sys.exit(2)

import tracing  # noqa: E402

tracing.add_source_path()
_import_start = time.perf_counter()
import repro.api  # noqa: E402,F401

BENCH_IMPORT_S = time.perf_counter() - _import_start

from common import STATE, Bench, canonical, host_record, median, remove  # noqa: E402
from fleet import Fleet  # noqa: E402
from service import Service  # noqa: E402
from sim64 import Sim64  # noqa: E402
from smoke import Smoke  # noqa: E402

WORKLOADS = {"smoke": Smoke, "sim64": Sim64, "service": Service,
             "fleet": Fleet}
#: Workloads whose program code runs inside this process (the others run
#: it in child processes, whose peak RSS they report).
IN_PROCESS = {"sim64", "fleet"}
SETUP_REPEATS = 3
#: Workloads whose ``pass_s`` is wall time; the others report CPU seconds.
#: A fleet pass is three threads mostly waiting on leases, polling and file
#: I/O, so its CPU time tracks the host's speed more than its work does;
#: the other passes are serial computation, or (service) a client-server
#: loop whose wall time mostly measures host scheduling.  See METRICS.md.
WALL_CLOCK = {"fleet"}

#: Per-layer metrics reported by a traced run: (name, unit).
PER_LAYER = (
    [("api.import_s", "s")]
    + [(metric, "s") for metric in tracing.TIMED_LAYERS.values()]
    + [(name, "bytes" if name.endswith("bytes_written") else "count")
       for name in tracing.EXACT_COUNTS]
    + [(name, "bytes") for name in tracing.VOLUMES]
    + [("service.dispatch_s", "s"), ("service.compute_s", "s"),
       ("service.wait_s", "s"), ("service.lru_hits", "count"),
       ("service.lru_misses", "count"), ("service.batches", "count"),
       ("service.batch_size_mean", "count"),
       ("fleet.unit_s", "s"), ("fleet.idle_s", "s"),
       ("fleet.claims", "count"), ("fleet.reassignments", "count"),
       ("fleet.steals", "count"), ("trace.overhead_s", "s")]
)
#: Counts that must repeat exactly from one traced pass to the next.
STABLE_COUNTS = set(tracing.EXACT_COUNTS) | {
    "service.lru_hits", "service.lru_misses", "fleet.claims",
    "fleet.reassignments", "fleet.steals"}


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Set up, run passes for ``seconds``, check and summarise one workload."""
    bench = Bench(seed=seed, workdir=workdir)
    bench.import_times.append(BENCH_IMPORT_S)
    workload = WORKLOADS[name](bench)
    passes = []
    try:
        setup_times = workload.setup(1 if trace else SETUP_REPEATS)
        # One untimed (but checked) pass first: the first pass of a process
        # pays one-off costs (page faults of a growing heap, cold caches).
        warmup = workload.run_pass(False)
        phases = [(False, seconds / 2), (True, seconds)] if trace \
            else [(False, seconds)]
        start = time.perf_counter()
        for traced, until in phases:
            while True:
                passes.append((traced, workload.run_pass(traced)))
                if time.perf_counter() - start >= until:
                    break
    finally:
        workload.close()

    checked = [warmup] + [item for _, item in passes]
    attempted = sum(item.attempted for item in checked)
    failed = sum(item.failed for item in checked)
    errors = [error for item in checked for error in item.errors]
    if hasattr(workload, "verify"):
        bad, messages = workload.verify()
        failed += bad
        errors += messages
    untraced = [item for traced, item in passes if not traced]
    traced = [item for flag, item in passes if flag]

    if hasattr(workload, "summary"):
        details = workload.summary(untraced)
    else:
        details = {metric: (median([item.details[metric] for item in untraced]),
                            "s", len(untraced))
                   for metric in untraced[0].details}
    breakdown = getattr(workload, "config_layers", {})
    if trace:
        metrics, unstable = layer_metrics(bench, untraced, traced)
        failed += len(unstable)
        errors += [f"count {metric} differs between traced passes"
                   for metric in unstable]
    else:
        rss = (tracing.peak_rss_mb() if name in IN_PROCESS
               else bench.child_rss_mb)
        pass_wall = median([item.wall_s for item in untraced])
        pass_cpu = median([item.cpu_s for item in untraced])
        metrics = {
            "setup_s": {"value": median([cpu for _, cpu in setup_times]),
                        "unit": "s"},
            "pass_s": {"value": pass_wall if name in WALL_CLOCK else pass_cpu,
                       "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        details["setup_wall_s"] = (median([wall for wall, _ in setup_times]),
                                   "s", len(setup_times))
        details["setup_s"] = (metrics["setup_s"]["value"], "s",
                              len(setup_times))
        details["pass_wall_s"] = (pass_wall, "s", len(untraced))
        details["pass_cpu_s"] = (pass_cpu, "s", len(untraced))
        details["peak_rss_mb"] = (rss, "MB", 1)
    details["failed_frac"] = (failed / attempted, "ratio", attempted)
    return {
        "workload": name, "trace": trace, "host": host_record(seed),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "errors": errors, "details": details, "metrics": metrics,
        "layer_breakdown": breakdown,
        "setup_s": setup_times,
        "passes": [{"traced": flag, "wall_s": item.wall_s, "cpu_s": item.cpu_s,
                    "details": item.details, "layers": item.layers}
                   for flag, item in passes],
    }


def layer_metrics(bench: Bench, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer values: medians of the traced passes; exact counts are
    taken from the first traced pass and must repeat in every other one."""
    metrics = {}
    unstable = []
    for metric, unit in PER_LAYER:
        values = [item.layers.get(metric, 0.0) for item in traced]
        if metric in STABLE_COUNTS:
            if len({canonical(value) for value in values}) > 1:
                unstable.append(metric)
            value = values[0]
        else:
            value = median(values)
        metrics[metric] = {"value": value, "unit": unit}
    metrics["api.import_s"]["value"] = median(bench.import_times)
    metrics["trace.overhead_s"]["value"] = (
        median([item.cpu_s for item in traced])
        - median([item.cpu_s for item in untraced]))
    return metrics, unstable


def report(record: dict) -> None:
    """Detail lines, then the results file."""
    host = record["host"]
    print(f"# workload {record['workload']} seed {host['seed']} "
          f"trace {int(record['trace'])}: nproc {host['nproc']}, "
          f"{host['cpu']}, python {host['python']}, numpy {host['numpy']}")
    for metric, (value, unit, count) in record["details"].items():
        print(f"# {metric} = {value:.6g} {unit} (n={count})")
    for part, layers in record["layer_breakdown"].items():
        busy = ", ".join(f"{metric}={value:.4g}"
                         for metric, value in layers.items()
                         if value and metric.endswith(("_s", ".s")))
        print(f"# layers of {part}: {busy or 'none'}")
    for error in record["errors"][:20]:
        print(f"# FAILED: {error}")
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{record['workload']}-seed{host['seed']}"
                      f"-trace{int(record['trace'])}.json")
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")


def run_all(args) -> int:
    """Every workload in its own process; one combined summary."""
    import subprocess
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        output = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True).stdout
        lines = output.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    work = STATE / "work"
    work.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    # Everything the program and its children create stays in the checkout.
    (workdir / "tmp").mkdir()
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        remove(workdir)
    report(record)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
