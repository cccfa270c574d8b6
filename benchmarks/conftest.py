"""Shared helpers for the benchmark harness.

The paper-regeneration benchmarks regenerate one table or figure of the
paper each.  A single regeneration is already a substantial amount of work
(a full validation table simulates dozens of cluster runs), so each runs
once; its rendered report, followed by the reproduced-vs-published
headline numbers, is written to ``benchmarks/output/`` so it can be
inspected after the run.
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


def save_report(report_dir: pathlib.Path, name: str, text: str,
                **numbers) -> None:
    """Persist a rendered report followed by its headline ``numbers``."""
    lines = [text, ""] + [f"{key}: {value}" for key, value in numbers.items()]
    (report_dir / f"{name}.txt").write_text("\n".join(lines) + "\n")
