"""Shared pieces of the benchmark: passes, subprocesses, statistics."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = tracing.source_root()
#: Scratch space inside the checkout (ignored by git).
STATE = ROOT / ".perfbench"
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(*pids: int) -> float:
    """CPU seconds (user + system) used so far by this process, by its
    finished children, and by the given live child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / CLOCK_TICKS
    return total


class Meter:
    """Wall and CPU seconds of one measured region."""

    def __init__(self, *pids: int):
        self.pids = pids
        self.wall = time.perf_counter()
        self.cpu = cpu_seconds(*pids)

    def stop(self) -> tuple[float, float]:
        return (time.perf_counter() - self.wall,
                cpu_seconds(*self.pids) - self.cpu)


@dataclass
class Pass:
    """One timed repetition of a workload's unit of work."""

    wall_s: float
    attempted: int
    #: CPU seconds of every process doing the pass's work.
    cpu_s: float = 0.0
    failed: int = 0
    #: Headline wall-clock values of this pass (e.g. ``smoke_cold_s``).
    details: dict[str, float] = field(default_factory=dict)
    #: Raw samples behind percentile metrics (request latencies, seconds).
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Per-layer values (traced passes only).
    layers: dict[str, float] | None = None
    errors: list[str] = field(default_factory=list)


@dataclass
class Bench:
    """Run-wide settings handed to a workload."""

    seed: int
    workdir: Path
    #: Import times (s) of every fresh program process of the run.
    import_times: list[float] = field(default_factory=list)
    #: Peak RSS (MiB) of the program processes of the run.
    child_rss_mb: float = 0.0

    def tmpdir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))


def child_env(traced: bool, **extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE", None)
    env.pop("PERFBENCH_SNAPSHOT", None)
    if traced:
        env["PERFBENCH_TRACE"] = "1"
    env.update(extra)
    return env


def child_command(mode: str, stats: Path, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), mode, str(stats), *args]


def read_stats(bench: Bench, stats: Path, workload_process: bool) -> dict:
    """Read a child's exit record; note its import time and (for processes
    that executed the workload) its peak RSS."""
    data = json.loads(stats.read_text())
    bench.import_times.append(data["import_s"])
    if workload_process:
        bench.child_rss_mb = max(bench.child_rss_mb, data["peak_rss_mb"])
    return data


def run_child(bench: Bench, mode: str, args: list[str], traced: bool,
              workload_process: bool, timeout: float = 150.0
              ) -> tuple[float, float, dict]:
    """Run one fresh program process; returns (wall seconds, CPU seconds,
    exit record)."""
    stats = bench.workdir / f"stats-{time.monotonic_ns()}.json"
    meter = Meter()
    subprocess.run(child_command(mode, stats, *args), env=child_env(traced),
                   stdout=subprocess.DEVNULL, check=True, timeout=timeout)
    wall, cpu = meter.stop()
    data = read_stats(bench, stats, workload_process)
    stats.unlink()
    return wall, cpu, data


def probe_setup(bench: Bench, repeats: int) -> list[tuple[float, float]]:
    """Fresh-process import plus PSL model parse and compile, ``repeats``
    times; (wall, CPU) seconds of each."""
    return [run_child(bench, "probe", [], traced=False,
                      workload_process=False)[:2] for _ in range(repeats)]


def merge_layers(*snapshots: dict | None) -> dict[str, float]:
    """Sum the per-layer values of several traced processes."""
    total: dict[str, float] = {}
    for snapshot in snapshots:
        if snapshot is None:
            continue
        for name, value in tracing.layer_values(snapshot).items():
            total[name] = total.get(name, 0.0) + value
    return total


def diff_snapshots(after: dict, before: dict) -> dict:
    return {section: {name: value - before[section].get(name, 0.0)
                      for name, value in after[section].items()}
            for section in ("self_s", "incl_s", "counts")}


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=True)


def host_record(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed}


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
