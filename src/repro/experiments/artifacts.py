"""Artifact export for study results: JSON + CSV per study, one manifest.

:func:`write_study_artifacts` lays a run out as::

    <out_dir>/
        manifest.json            # run-level index: specs, hashes, stats
        <study>.json             # StudyResult.to_dict() (strict JSON)
        <study>.csv              # the uniform tabular rows

The manifest records, per study, the spec (and its content hash), the
resolved machine fingerprint, elapsed wall-clock time and cache
accounting — enough for a fleet of machines sharing one sweep-cache
directory to tell which shards of a grid are already done, and for a
reviewer to re-run any study from its spec alone.

Sharded runs (:mod:`repro.experiments.sharding`) write the same layout —
each shard's manifest entry additionally records its parent spec/hash and
assigned grid units — and this module provides the reassembly side:
:func:`load_study_results` rebuilds row-level results from a manifest
directory, :func:`merge_manifests` recombines any number of shard
artifact directories into one directory whose manifest and per-study
artifacts match an unsharded run (rows and CSVs byte-identical; only
wall-clock and cache accounting differ), and :func:`compare_artifact_dirs`
asserts exactly that, normalising the volatile timing fields — the check
the CI merge job runs against a reference unsharded run.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro._version import __version__
from repro.core.evaluation.compiler import CacheStats
from repro.errors import ExperimentError
from repro.experiments.diskcache import DiskCacheStats
from repro.experiments.study import StudyResult, StudySpec, is_shard_spec


def _slug(name: str) -> str:
    """A filesystem-safe file stem for a study name."""
    return "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in name)


def _artifact_stems(results: list[StudyResult]) -> list[str]:
    """One unique file stem per result.

    A study name is used verbatim when it appears once; several results
    of the same study (sharded runs of one grid with different specs)
    are disambiguated by spec hash, then by position, so no shard ever
    overwrites another.
    """
    stems: list[str] = []
    taken: set[str] = set()
    for result in results:
        stem = _slug(result.spec.study)
        if stem in taken:
            stem = f"{stem}-{result.spec_hash[:8]}"
        index = 2
        while stem in taken:
            stem = f"{_slug(result.spec.study)}-{result.spec_hash[:8]}-{index}"
            index += 1
        taken.add(stem)
        stems.append(stem)
    return stems


def write_result_json(result: StudyResult, path: Path) -> None:
    path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def write_result_csv(result: StudyResult, path: Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=result.columns)
        writer.writeheader()
        for row in result.rows:
            writer.writerow(row)


def manifest_entry(result: StudyResult, stem: str | None = None) -> dict:
    stem = stem if stem is not None else _slug(result.spec.study)
    entry = {
        "study": result.spec.study,
        "spec": result.spec.to_dict(),
        "spec_hash": result.spec_hash,
        "machine": result.machine_name,
        "machine_fingerprint": result.machine_fingerprint,
        "elapsed_s": result.elapsed_s,
        "rows": len(result.rows),
        "cache": {
            "predictions": result.cache_stats.predictions,
            "subtask_hits": result.cache_stats.subtask_hits,
            "subtask_misses": result.cache_stats.subtask_misses,
            "disk_hits": result.disk_stats.hits,
            "disk_misses": result.disk_stats.misses,
            "disk_stores": result.disk_stats.stores,
        },
        "execution": result.execution,
        "phases": result.phases,
        "artifacts": {
            "json": f"{stem}.json",
            "csv": f"{stem}.csv",
        },
    }
    if result.sharding is not None:
        entry["sharding"] = result.sharding
    return entry


def write_study_artifacts(results: Iterable[StudyResult] | StudyResult,
                          out_dir: str | Path,
                          allow_empty: bool = False) -> Path:
    """Write every result's JSON/CSV pair plus the run manifest.

    ``allow_empty`` permits a manifest with no studies (a shard of a fleet
    run that received no work still publishes an artifact directory).
    Returns the path of the written ``manifest.json``.
    """
    if isinstance(results, StudyResult):
        results = [results]
    results = list(results)
    if not results and not allow_empty:
        raise ExperimentError("no study results to write")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ExperimentError(
            f"cannot create artifact directory {out}: {exc}") from exc

    entries = []
    for result, stem in zip(results, _artifact_stems(results)):
        write_result_json(result, out / f"{stem}.json")
        write_result_csv(result, out / f"{stem}.csv")
        entries.append(manifest_entry(result, stem))

    manifest = {
        "version": __version__,
        "studies": entries,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                                        allow_nan=False) + "\n")
    return manifest_path


def read_manifest(out_dir: str | Path) -> dict:
    """Load a run manifest written by :func:`write_study_artifacts`."""
    path = Path(out_dir) / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except OSError as exc:
        raise ExperimentError(f"cannot read manifest {path}: {exc}") from exc
    except ValueError as exc:
        raise ExperimentError(
            f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ExperimentError(
            f"manifest {path} holds {type(manifest).__name__}, not an object")
    return manifest


# ---------------------------------------------------------------------------
# Reassembly: load artifact directories, merge shard runs, compare runs
# ---------------------------------------------------------------------------


_REQUIRED = object()
_NUMBER = (int, float)


def _typed(where: str, name: str, value, kinds, what: str):
    """``value`` if it is one of ``kinds`` (a bool is no number)."""
    if not isinstance(value, kinds) or (isinstance(value, bool)
                                        and bool not in kinds):
        raise ExperimentError(
            f"{where} field {name!r} holds {type(value).__name__}, not "
            f"{what}; it was edited or corrupted")
    return value


def _field(where: str, entry: dict, name: str, kinds, what: str,
           default=_REQUIRED):
    """Entry field ``name``, type-checked; ``default`` when absent."""
    if name not in entry:
        if default is _REQUIRED:
            raise ExperimentError(
                f"{where} is missing required field {name!r}; it was "
                "edited or truncated")
        return default
    return _typed(where, name, entry[name], kinds, what)


def _table(where: str, entry: dict, name: str, kinds, what: str) -> dict:
    """An optional object field whose every value is one of ``kinds``."""
    table = _field(where, entry, name, dict, "an object", {})
    for key, value in table.items():
        _typed(where, f"{name}.{key}", value, kinds, what)
    return table


def _artifact_name(where: str, entry: dict) -> str:
    """The entry's JSON artifact: a plain file name inside the directory."""
    artifacts = _field(where, entry, "artifacts", dict, "an object")
    name = _typed(where, "artifacts.json", artifacts.get("json"), str,
                  "a file name")
    if name in ("", ".", "..") or Path(name).name != name or "\\" in name:
        raise ExperimentError(
            f"{where} field 'artifacts.json' is {name!r}, not a file name "
            "inside the artifact directory")
    return name


def load_study_results(out_dir: str | Path) -> list[StudyResult]:
    """Rebuild row-level :class:`StudyResult` objects from an artifact dir.

    The legacy payload objects are not persisted, so the results carry
    ``payload=None`` — everything the merge layer needs (spec, rows,
    machine fingerprint, accounting, shard bookkeeping) is recovered.
    Each entry's fields are type-checked and its spec re-canonicalised
    and its hash verified against the manifest, so a hand-edited or
    corrupt manifest fails with an :class:`ExperimentError` naming the
    entry and the field.
    """
    out = Path(out_dir)
    manifest = read_manifest(out)
    studies = _field(f"manifest {out}", manifest, "studies", list, "a list",
                     [])
    results = []
    for position, entry in enumerate(studies):
        where = f"manifest {out} study entry {position}"
        if not isinstance(entry, dict):
            raise ExperimentError(f"{where} is not an object")
        json_path = out / _artifact_name(where, entry)
        try:
            data = json.loads(json_path.read_text())
        except OSError as exc:
            raise ExperimentError(
                f"cannot read study artifact {json_path}: {exc}") from exc
        except ValueError as exc:
            raise ExperimentError(
                f"study artifact {json_path} is not valid JSON: {exc}") from exc
        results.append(_build_result(where, entry,
                                     f"study artifact {json_path}", data))
    return results


def result_from_dict(data, where: str) -> StudyResult:
    """Rebuild a result from its :meth:`StudyResult.to_dict` document.

    The fleet's unit objects travel in this form.  The fields get the same
    checks :func:`load_study_results` gives a manifest entry and its
    artifact; a bad one raises an :class:`ExperimentError` that starts
    with ``where`` and names the field.
    """
    return _build_result(where, data, where, data)


def _build_result(where: str, entry: dict, artifact: str,
                  data) -> StudyResult:
    """A result from its metadata ``entry`` and its row document ``data``.

    ``where`` and ``artifact`` name the two documents in error messages;
    a unit object is both at once.  The spec is re-canonicalised and its
    hash checked against the recorded one.
    """
    _typed(artifact, "(top level)", data, dict, "an object")
    spec_data = _field(where, entry, "spec", dict, "an object")
    recorded_hash = _field(where, entry, "spec_hash", str, "a string")
    try:
        spec = StudySpec.from_dict(spec_data)
    except ExperimentError as exc:
        raise ExperimentError(f"{where} field 'spec': {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ExperimentError(
            f"{where} field 'spec' is not a study spec: {exc}") from exc
    if spec.spec_hash() != recorded_hash:
        raise ExperimentError(
            f"{where} field 'spec_hash' is {recorded_hash[:12]} but field "
            f"'spec' hashes to {spec.spec_hash()[:12]}; it was edited")
    cache = _table(where, entry, "cache", int, "a count")
    execution = _table(where, entry, "execution", int, "a count")
    phases = _table(where, entry, "phases", _NUMBER, "a number")
    columns = _field(artifact, data, "columns", list, "a list", [])
    for index, column in enumerate(columns):
        _typed(artifact, f"columns.{index}", column, str, "a string")
    rows = _field(artifact, data, "rows", list, "a list", [])
    for index, row in enumerate(rows):
        _typed(artifact, f"rows.{index}", row, dict, "an object")
        if not set(row) <= set(columns):
            raise ExperimentError(
                f"{artifact} field 'rows.{index}' has keys outside "
                "field 'columns'")
    return StudyResult(
        spec=spec,
        payload=None,
        columns=list(columns),
        rows=list(rows),
        machine_name=_field(where, entry, "machine", (str, type(None)),
                            "a string", None),
        machine_fingerprint=_field(where, entry, "machine_fingerprint",
                                   (str, type(None)), "a string", None),
        elapsed_s=_field(where, entry, "elapsed_s", _NUMBER, "a number", 0.0),
        cache_stats=CacheStats(predictions=cache.get("predictions", 0),
                               subtask_hits=cache.get("subtask_hits", 0),
                               subtask_misses=cache.get("subtask_misses", 0)),
        disk_stats=DiskCacheStats(hits=cache.get("disk_hits", 0),
                                  misses=cache.get("disk_misses", 0),
                                  stores=cache.get("disk_stores", 0)),
        execution=dict(execution),
        phases=dict(phases),
        analysis=dict(_field(artifact, data, "analysis", dict, "an object",
                             {})),
        sharding=_field(where, entry, "sharding", (dict, type(None)),
                        "an object", None),
    )


def merge_manifests(shard_dirs: Sequence[str | Path],
                    out_dir: str | Path) -> Path:
    """Recombine shard artifact directories into one unsharded-shape run.

    Every shard family (entries sharing a parent hash) found across the
    directories is merged through
    :func:`~repro.experiments.sharding.merge_study_results`; unsharded
    entries pass through unchanged (appearing twice is an error).  The
    merged directory's manifest and per-study artifacts match an
    unsharded run of the same specs — rows and CSVs byte-identical, only
    the wall-clock/cache accounting (summed over shards) differs.

    Returns the merged ``manifest.json`` path.
    """
    from repro.experiments.sharding import merge_result_families
    if not shard_dirs:
        raise ExperimentError("no artifact directories to merge")
    collected: list[StudyResult] = []
    for shard_dir in shard_dirs:
        collected.extend(load_study_results(shard_dir))

    seen_plain: set[str] = set()
    for result in collected:
        if is_shard_spec(result.spec):
            continue
        if result.spec_hash in seen_plain:
            raise ExperimentError(
                f"study {result.spec.study!r} [{result.spec_hash[:12]}] "
                "appears unsharded in more than one input directory")
        seen_plain.add(result.spec_hash)

    combined = merge_result_families(collected)
    if not combined:
        raise ExperimentError(
            f"nothing to merge: no study entries found under "
            f"{[str(d) for d in shard_dirs]}")
    return write_study_artifacts(combined, out_dir)


def _normalize_volatile(entry: dict) -> dict:
    """Zero the fields that legitimately differ between any two runs."""
    normalized = dict(entry)
    if "elapsed_s" in normalized:
        normalized["elapsed_s"] = 0.0
    if isinstance(normalized.get("cache"), dict):
        normalized["cache"] = {key: 0 for key in sorted(normalized["cache"])}
    if isinstance(normalized.get("execution"), dict):
        # Tier counts are accounting, not results: a warm disk cache
        # serves rows with the tier recorded when they were first
        # computed, so two bit-identical runs may disagree here.
        normalized["execution"] = {}
    if isinstance(normalized.get("phases"), dict):
        # Per-phase host seconds are wall-clock accounting, never results.
        normalized["phases"] = {}
    if isinstance(normalized.get("spec"), dict):
        # A cache directory is where a host kept its cache; it is not
        # part of the spec's identity (StudySpec.spec_hash).
        normalized["spec"] = {key: value for key, value
                              in normalized["spec"].items()
                              if key != "cache_dir"}
    return normalized


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False)


def compare_artifact_dirs(candidate: str | Path,
                          reference: str | Path) -> list[str]:
    """Differences between two artifact directories, timing normalised.

    Manifests are compared after zeroing wall-clock and cache accounting
    and dropping each spec's cache directory (everything else — specs,
    hashes, machine fingerprints, row counts, artifact names — must be
    byte-identical); per-study CSVs are compared
    byte-for-byte and per-study JSONs field-by-field with the same
    normalisation.  Returns a list of human-readable differences (empty:
    the runs match).
    """
    candidate, reference = Path(candidate), Path(reference)
    diffs: list[str] = []
    manifest_c = read_manifest(candidate)
    manifest_r = read_manifest(reference)

    entries_c = {entry["spec_hash"]: entry
                 for entry in manifest_c.get("studies", [])}
    entries_r = {entry["spec_hash"]: entry
                 for entry in manifest_r.get("studies", [])}
    for spec_hash, entry in entries_r.items():
        if spec_hash not in entries_c:
            diffs.append(f"missing study {entry['study']!r} "
                         f"[{spec_hash[:12]}]")
    for spec_hash, entry in entries_c.items():
        if spec_hash not in entries_r:
            diffs.append(f"unexpected study {entry['study']!r} "
                         f"[{spec_hash[:12]}]")

    normalized_c = {**manifest_c,
                    "studies": [_normalize_volatile(entry)
                                for entry in manifest_c.get("studies", [])]}
    normalized_r = {**manifest_r,
                    "studies": [_normalize_volatile(entry)
                                for entry in manifest_r.get("studies", [])]}
    if _canonical(normalized_c) != _canonical(normalized_r):
        diffs.append("manifest.json differs (after timing normalisation)")

    for spec_hash, entry in entries_r.items():
        other = entries_c.get(spec_hash)
        if other is None:
            continue
        study = entry["study"]
        csv_c = candidate / other["artifacts"]["csv"]
        csv_r = reference / entry["artifacts"]["csv"]
        try:
            if csv_c.read_bytes() != csv_r.read_bytes():
                diffs.append(f"{study}: CSV rows differ "
                             f"({csv_c.name} vs {csv_r.name})")
        except OSError as exc:
            diffs.append(f"{study}: cannot compare CSVs: {exc}")
        try:
            json_c = json.loads((candidate / other["artifacts"]["json"]).read_text())
            json_r = json.loads((reference / entry["artifacts"]["json"]).read_text())
        except OSError as exc:
            diffs.append(f"{study}: cannot compare JSON artifacts: {exc}")
            continue
        if _canonical(_normalize_volatile(json_c)) \
                != _canonical(_normalize_volatile(json_r)):
            diffs.append(f"{study}: JSON artifact differs "
                         "(after timing normalisation)")
    return diffs
