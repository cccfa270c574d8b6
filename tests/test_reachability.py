"""Regrowth guard: every function and class in src is named somewhere else.

A word scan over ``src``, ``examples``, ``perfbench`` and ``benchmarks``
counts each identifier.  A function, method or class defined in src is
unreached code when no word outside every definition of its name names
it: nothing in the package, the examples, the perfbench workloads or the
benchmark suites calls it, so it should be deleted, or moved into
``tests/`` when only tests use it.  Counting words outside *every*
definition keeps several definitions of one name (a base method and its
overrides) from vouching for each other.  Dunder methods are the
exception: the language calls them without naming them, so one counts
as reached when any word outside its own definition names the dunder.
The few names Python or a registry reaches without spelling them out,
and the calls README documents for users, are listed in :data:`ALLOWED`
with the reason they stay.

The scan is a heuristic: a common name (``create``, ``grid``) is "named"
by any other use of the same word, so it only catches what nothing at
all mentions.
"""

import ast
import re
from collections import Counter, defaultdict
from functools import lru_cache
from pathlib import Path
from typing import Mapping

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
    "src/repro/experiments/sweep.py:__iter__": "sweeps are iterated",
    "src/repro/service/core.py:__exit__": "BackgroundServer is used in `with`",
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


def _sources() -> dict[str, str]:
    """Repository-relative posix path -> text of every scanned file."""
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for directory in SCANNED
            for path in sorted((ROOT / directory).rglob("*.py"))}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached_in(sources: Mapping[str, str]) -> list[tuple[str, int, str]]:
    """``(path, line, name)`` of every ``src/`` definition no other word names.

    ``sources`` maps repository-relative posix paths to file text.
    """
    counts = Counter()
    for text in sources.values():
        counts.update(WORD.findall(text))
    #: (path, line, name, uses of the name inside this one definition).
    definitions = []
    #: name -> uses of the name inside any scanned definition of it.
    inside = Counter()
    for relative, text in sources.items():
        lines = text.splitlines()
        covered = defaultdict(set)
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            start = min([node.lineno]
                        + [decorator.lineno for decorator in node.decorator_list])
            covered[node.name].update(range(start, node.end_lineno + 1))
            if relative.startswith("src/"):
                own = WORD.findall("\n".join(lines[start - 1:node.end_lineno]))
                definitions.append((relative, node.lineno, node.name,
                                    own.count(node.name)))
        # A line shared by nested definitions of one name counts once.
        for name, numbers in covered.items():
            inside[name] += sum(WORD.findall(lines[number - 1]).count(name)
                                for number in numbers)
    return [(relative, line, name)
            for relative, line, name, own in definitions
            if counts[name] == (own if _is_dunder(name) else inside[name])]


@lru_cache(maxsize=1)
def unreached_definitions() -> tuple[tuple[str, int, str], ...]:
    """:func:`unreached_in` over the scanned directories of this repository."""
    return tuple(unreached_in(_sources()))


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



#: A base method and its override that only mention each other, and two
#: definitions of one dunder.
STORE_SOURCE = """\
class Store:
    def delete(self, key):
        raise NotImplementedError("delete")


class Memory(Store):
    def delete(self, key):
        return super().delete(key)

    def __eq__(self, other):
        return other is self


class Disk(Store):
    def __eq__(self, other):
        return other is self
"""

#: A program that builds both stores and compares them, deleting nothing.
STORE_USER = "print(Memory() == Disk())\n"


def test_definitions_of_one_name_do_not_vouch_for_each_other():
    # The two ``__eq__`` definitions still vouch for each other: the
    # language calls a dunder without naming it.
    found = unreached_in({"src/store.py": STORE_SOURCE,
                          "examples/use.py": STORE_USER})
    assert found == [("src/store.py", 2, "delete"),
                     ("src/store.py", 7, "delete")]


def test_a_use_outside_every_definition_reaches_them_all():
    found = unreached_in({"src/store.py": STORE_SOURCE,
                          "examples/use.py": STORE_USER
                          + "Memory().delete('key')\n"})
    assert found == []


def test_a_dunder_no_other_word_names_is_unreached():
    found = unreached_in({
        "src/tally.py": "class Tally:\n"
                        "    def __eq__(self, other):\n"
                        "        return True\n",
        "examples/use.py": "print(Tally() == Tally())\n"})
    assert found == [("src/tally.py", 2, "__eq__")]
