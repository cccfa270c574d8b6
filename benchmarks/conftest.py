"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper.  Because a
single regeneration is already a substantial amount of work (a full
validation table simulates dozens of cluster runs), benchmarks execute one
round of one iteration and attach the reproduced-vs-published numbers to
``benchmark.extra_info``; the rendered reports are also written to
``benchmarks/output/`` so they can be inspected after the run.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

#: Directory the rendered table/figure reports are written into.
OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

# The reference evaluators in ``tests/oracles.py`` are the baselines of the
# compiled-vs-naive gate; benchmarks import them as ``oracles`` like the tests.
sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


def save_report(report_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a rendered report next to the benchmark results."""
    (report_dir / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
