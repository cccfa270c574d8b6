"""Regrowth guard: every function and class in src is named somewhere else.

A word scan over ``src``, ``examples``, ``perfbench`` and ``benchmarks``
counts each identifier.  A function, method or class defined in src that
no word outside its own definition names is unreached code: nothing in
the package, the examples, the perfbench workloads or the benchmark
suites calls it, so it should be deleted, or moved into ``tests/`` when
only tests use it.  The few names Python or a registry reaches without
spelling them out, and the calls README documents for users, are listed
in :data:`ALLOWED` with the reason they stay.

The scan is a heuristic: a common name (``create``, ``grid``) is "named"
by any other use of the same word, so it only catches what nothing at
all mentions.
"""

import ast
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "perfbench", "benchmarks")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: ``path:name`` -> why the definition stays although no word names it.
ALLOWED = {
    # Study executors and analysis hooks, reached through the registry.
    "src/repro/experiments/study.py:_study_table1": "registered by @register_study",
    "src/repro/experiments/study.py:_study_table2": "registered by @register_study",
    "src/repro/experiments/study.py:_study_table3": "registered by @register_study",
    "src/repro/experiments/study.py:_study_figure8": "registered by @register_study",
    "src/repro/experiments/study.py:_study_figure9": "registered by @register_study",
    "src/repro/experiments/study.py:_study_blocking": "registered by @register_study",
    "src/repro/experiments/study.py:_study_scaling": "registered by @register_study",
    "src/repro/experiments/study.py:_study_ablation": "registered by @register_study",
    "src/repro/experiments/study.py:_study_agreement": "registered by @register_study",
    "src/repro/experiments/study.py:_study_noise_sensitivity": "registered by @register_study",
    "src/repro/experiments/study.py:_study_steady_scaling": "registered by @register_study",
    "src/repro/experiments/study.py:_analyze_weak_scaling": "registered by @register_analysis",
    "src/repro/experiments/study.py:_analyze_error_stats": "registered by @register_analysis",
    # Dunder methods, called by the language.
    "src/repro/core/clc.py:__eq__": "clc tallies compare with ==",
    "src/repro/core/ir.py:__contains__": "`name in model` membership",
    "src/repro/diskio.py:__setstate__": "pickle restores caches sent to workers",
    "src/repro/experiments/sweep.py:__iter__": "sweeps are iterated",
    # Calls README shows users.
    "src/repro/experiments/study.py:to_json": "README: StudySpec.to_json",
    "src/repro/experiments/uncertainty.py:machine_overrides":
        "README: NoiseCalibration.machine_overrides",
    # Tool front ends no program calls yet; CHANGES.md names them (FOUND).
    "src/repro/core/capp/analyzer.py:analyze_source":
        "capp's entry point; the C characterisation tool has no caller",
    "src/repro/core/capp/analyzer.py:sweep_kernel_source":
        "capp's bundled SWEEP3D kernel source; see analyze_source",
    "src/repro/core/hmcl/parser.py:parse_hmcl":
        "inverse of format_hmcl (`repro hmcl`); no program reads HMCL text",
}


def _sources() -> dict[Path, str]:
    return {path: path.read_text()
            for directory in SCANNED
            for path in sorted((ROOT / directory).rglob("*.py"))}


@lru_cache(maxsize=1)
def unreached_definitions() -> tuple[tuple[str, int, str], ...]:
    """``(path, line, name)`` of every src definition no other word names."""
    sources = _sources()
    counts = Counter()
    for text in sources.values():
        counts.update(WORD.findall(text))
    unreached = []
    for path, text in sources.items():
        relative = path.relative_to(ROOT).as_posix()
        if not relative.startswith("src/"):
            continue
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            start = min([node.lineno]
                        + [decorator.lineno for decorator in node.decorator_list])
            own = WORD.findall("\n".join(lines[start - 1:node.end_lineno]))
            if counts[node.name] == own.count(node.name):
                unreached.append((relative, node.lineno, node.name))
    return tuple(unreached)


def test_every_src_definition_is_reached():
    found = unreached_definitions()
    unexpected = [f"{path}:{line}: {name}" for path, line, name in found
                  if f"{path}:{name}" not in ALLOWED]
    assert not unexpected, (
        "src defines functions or classes that nothing in src, examples, "
        "perfbench or benchmarks names; delete them, move test-only helpers "
        "into tests/, or add an ALLOWED entry with the reason they stay:\n  "
        + "\n  ".join(unexpected))


def test_allowlist_has_no_stale_entries():
    found = {f"{path}:{name}" for path, _, name in unreached_definitions()}
    stale = sorted(set(ALLOWED) - found)
    assert not stale, (
        "ALLOWED lists names that are now reached or gone; remove them:\n  "
        + "\n  ".join(stale))
