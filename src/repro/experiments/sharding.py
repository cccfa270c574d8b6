"""Sharded study execution: split one spec's grid across machines.

A study's scenario grid is embarrassingly partitionable — like the
density-mode cells of a partitioned estimation problem, every unit of the
grid (a validation-table row, a processor count, a blocking factor) can be
evaluated with no knowledge of the others.  What a fleet needs on top of
the shared medium that already exists (spec files, the fingerprint-keyed
:class:`~repro.experiments.diskcache.SweepDiskCache`, per-study manifests)
is exactly two deterministic pieces, and this module provides both:

* a **planner** — :class:`ShardPlanner` splits any
  :class:`~repro.experiments.study.StudySpec` into ``N`` disjoint shard
  specs, balancing by estimated scenario cost (longest-processing-time
  greedy assignment) rather than naive round-robin.  A shard spec carries
  the parent's full grid plus three bookkeeping parameters
  (``shard_index``/``shard_count``/``shard_parent``), so its
  ``spec_hash()`` distinguishes it from every sibling while the recorded
  parent hash ties the family together.  Planning is a pure function of
  the spec: every machine that plans the same spec with the same shard
  count computes byte-identical shard specs, so a fleet coordinates
  through nothing but a spec file and ``--shard i/N``.
* a **merger** — :func:`merge_study_results` reassembles shard results
  into one :class:`~repro.experiments.study.StudyResult` whose rows are
  bit-identical to an unsharded run: it recomputes the plan, refuses
  mismatched parent hashes, duplicated or missing shards and overlapping
  or incomplete grid coverage, reorders rows into full-grid order and
  recomputes the few derived columns that depend on the whole series
  (weak-scaling efficiency).  The artifact-directory counterpart lives in
  :func:`repro.experiments.artifacts.merge_manifests`.

Each registered study declares its shard axis here (:data:`ShardAxis`):
the grid parameter that may be narrowed per shard, how to enumerate its
units with cost estimates, and how a tabulated row maps back onto the
axis.  Studies without a registered axis fall back to a single
indivisible unit (the ablation's one-point "grid").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.evaluation.compiler import CacheStats
from repro.errors import ExperimentError
from repro.experiments.diskcache import DiskCacheStats
from repro.experiments.paper_data import PAPER_TABLES
from repro.profiling.phases import merge_phases
from repro.experiments.study import (
    SHARD_PARAM_DEFAULTS,
    SPECULATIVE_STUDIES,
    StudyResult,
    StudySpec,
    build_spec,
    study_names,
)

#: The unit value of the single-unit fallback axis (unshardable studies).
WHOLE_STUDY = "__study__"


# ---------------------------------------------------------------------------
# Shard axes: how each study's grid partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardUnit:
    """One indivisible slice of a study's grid, with an estimated cost."""

    value: Any
    cost: float


@dataclass(frozen=True)
class ShardAxis:
    """How one study family's scenario grid shards.

    ``param`` names the spec parameter the planner narrows per shard
    (``None``: the study is one indivisible unit).  ``units`` enumerates
    the axis values of a resolved parameter set with cost estimates;
    ``row_unit`` maps a tabulated row back to the unit that produced it
    (coverage/overlap checking) and ``row_key`` to its position in the
    full-grid row order (merge ordering).  ``finalize_rows`` recomputes
    derived columns that depend on the whole series after the merge.
    """

    param: str | None
    units: Callable[[Mapping[str, Any]], list[ShardUnit]]
    row_unit: Callable[[Mapping[str, Any], Mapping[str, Any]], Any]
    row_key: Callable[[Mapping[str, Any], Mapping[str, Any]], tuple]
    finalize_rows: Callable[[list, Mapping[str, Any]], list] | None = None


def _whole_axis() -> ShardAxis:
    return ShardAxis(
        param=None,
        units=lambda params: [ShardUnit(WHOLE_STUDY, 1.0)],
        row_unit=lambda row, params: WHOLE_STUDY,
        row_key=lambda row, params: (0,),
    )


_SHARD_AXES: dict[str, ShardAxis] = {}


def register_shard_axis(study: str, axis: ShardAxis) -> None:
    """Declare how a registered study's grid shards."""
    _SHARD_AXES[study] = axis


def shard_axis_for(study: str) -> ShardAxis:
    """The study's declared axis, or the single-unit fallback."""
    return _SHARD_AXES.get(study, _whole_axis())


def _table_axis(table_name: str) -> ShardAxis:
    published = PAPER_TABLES[table_name]["rows"]
    index_of = {(row.data_size, row.pes, row.px, row.py): position
                for position, row in enumerate(published)}

    def units(params: Mapping[str, Any]) -> list[ShardUnit]:
        indices = params.get("rows")
        indices = list(indices) if indices is not None \
            else list(range(len(published)))
        max_pes = params.get("max_pes")
        selected = []
        for index in indices:
            if not 0 <= index < len(published):
                raise ExperimentError(
                    f"{table_name} row index {index!r} out of range "
                    f"0..{len(published) - 1}")
            row = published[index]
            if max_pes is None or row.pes <= max_pes:
                # The discrete-event measurement dominates a row's cost and
                # scales with the processor count of the configuration.
                selected.append(ShardUnit(index, float(row.pes)))
        return selected

    def row_unit(row: Mapping[str, Any], params: Mapping[str, Any]):
        key = (row["data_size"], row["pes"], row["px"], row["py"])
        try:
            return index_of[key]
        except KeyError:
            raise ExperimentError(
                f"merged row {key!r} matches no published {table_name} "
                "row") from None

    return ShardAxis(
        param="rows",
        units=units,
        row_unit=row_unit,
        row_key=lambda row, params: (row_unit(row, params),),
    )


def _figure_grid(figure_name: str,
                 params: Mapping[str, Any]) -> tuple[list, list]:
    study = SPECULATIVE_STUDIES[figure_name]
    counts = params.get("processor_counts")
    counts = list(counts) if counts is not None else list(study.processor_counts)
    factors = params.get("rate_factors")
    factors = list(factors) if factors is not None else list(study.rate_factors)
    return counts, factors


def _axis_position(values: list, value, label: str) -> int:
    try:
        return values.index(value)
    except ValueError:
        raise ExperimentError(
            f"merged row references {label} {value!r} which is not on the "
            f"parent grid {values}") from None


def _figure_axis(figure_name: str) -> ShardAxis:
    def units(params: Mapping[str, Any]) -> list[ShardUnit]:
        counts, factors = _figure_grid(figure_name, params)
        # One scenario per rate factor at each count; evaluation cost grows
        # with the rank count (the wavefront recurrence is longer).
        return [ShardUnit(count, float(max(count, 1)) * len(factors))
                for count in counts]

    def row_key(row: Mapping[str, Any], params: Mapping[str, Any]) -> tuple:
        counts, factors = _figure_grid(figure_name, params)
        return (_axis_position(factors, row["rate_factor"], "rate factor"),
                _axis_position(counts, row["processors"], "processor count"))

    return ShardAxis(
        param="processor_counts",
        units=units,
        row_unit=lambda row, params: row["processors"],
        row_key=row_key,
    )


def _blocking_valid_mks(params: Mapping[str, Any]) -> list[int]:
    nz = params["cells_per_processor"][2]
    return [mk for mk in params["mk_values"] if 1 <= mk <= nz]


def _blocking_axis() -> ShardAxis:
    def units(params: Mapping[str, Any]) -> list[ShardUnit]:
        mmis = len(list(params["mmi_values"]))
        return [ShardUnit(mk, float(mmis)) for mk in _blocking_valid_mks(params)]

    def row_key(row: Mapping[str, Any], params: Mapping[str, Any]) -> tuple:
        mks = _blocking_valid_mks(params)
        mmis = list(params["mmi_values"])
        return (_axis_position(mks, row["mk"], "mk"),
                _axis_position(mmis, row["mmi"], "mmi"))

    return ShardAxis(
        param="mk_values",
        units=units,
        row_unit=lambda row, params: row["mk"],
        row_key=row_key,
    )


def _count_axis(count_column: str,
                finalize: Callable[[list, Mapping[str, Any]], list] | None = None,
                ) -> ShardAxis:
    """A plain processor-count axis (the scaling and agreement studies)."""
    def units(params: Mapping[str, Any]) -> list[ShardUnit]:
        return [ShardUnit(count, float(max(count, 1)))
                for count in params["processor_counts"]]

    def row_key(row: Mapping[str, Any], params: Mapping[str, Any]) -> tuple:
        counts = list(params["processor_counts"])
        return (_axis_position(counts, row[count_column], "processor count"),)

    return ShardAxis(
        param="processor_counts",
        units=units,
        row_unit=lambda row, params: row[count_column],
        row_key=row_key,
        finalize_rows=finalize,
    )


def _scaling_finalize(rows: list, params: Mapping[str, Any]) -> list:
    """Recompute whole-series weak-scaling columns after a merge.

    A shard's efficiency/overhead columns are relative to the shard's own
    first processor count; the merged series must be relative to the full
    series' baseline, exactly as :func:`repro.experiments.scaling.
    analyze_series` computes it (same arithmetic, bit-identical floats).
    """
    if not rows:
        return rows
    base = rows[0]["time_s"]
    merged = []
    for row in rows:
        time = row["time_s"]
        merged.append({**row,
                       "efficiency": float(base / time),
                       "overhead_fraction": float(max(0.0, 1.0 - base / time))})
    return merged


for _table in ("table1", "table2", "table3"):
    register_shard_axis(_table, _table_axis(_table))
for _figure in ("figure8", "figure9"):
    register_shard_axis(_figure, _figure_axis(_figure))
register_shard_axis("blocking", _blocking_axis())
register_shard_axis("scaling", _count_axis("processors",
                                           finalize=_scaling_finalize))
register_shard_axis("agreement", _count_axis("pes"))
register_shard_axis("steady-scaling", _count_axis("pes"))
# "ablation" stays on the single-unit fallback: its grid is one point.


# ---------------------------------------------------------------------------
# Shard specs: detection and parent recovery
# ---------------------------------------------------------------------------


def is_shard_spec(spec: StudySpec) -> bool:
    """Whether a spec is one slice of a larger grid."""
    params = spec.params_dict
    return bool(params.get("shard_parent")) or params.get("shard_count", 1) > 1


def parent_spec(spec: StudySpec) -> StudySpec:
    """The spec a shard was split from (the shard markers stripped).

    A shard spec carries the parent's grid verbatim — only the
    ``shard_*`` bookkeeping parameters distinguish it — so the parent is
    recoverable from any shard alone.
    """
    params = {name: value for name, value in spec.params
              if name not in SHARD_PARAM_DEFAULTS}
    return build_spec(spec.study, machine=spec.machine,
                      cache_dir=spec.cache_dir,
                      analysis=spec.analysis, **params)


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardAssignment:
    """One shard of a plan: its spec and the grid units it must cover."""

    index: int
    spec: StudySpec
    units: tuple
    estimated_cost: float


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic split of one spec's grid into disjoint shard specs."""

    parent: StudySpec
    parent_hash: str
    #: Shard count that was requested (the plan may hold fewer shards when
    #: the grid has fewer units than machines).
    requested: int
    axis_param: str | None
    #: Every grid unit, in full-grid order.
    unit_values: tuple
    shards: tuple[ShardAssignment, ...]

    @property
    def shard_count(self) -> int:
        """The effective shard count (every shard is non-empty)."""
        return len(self.shards)

    def spec_for(self, index: int) -> StudySpec | None:
        """The shard spec at ``index`` (``None``: no work for this shard)."""
        if not 0 <= index < self.requested:
            raise ExperimentError(
                f"shard index {index} out of range for {self.requested} "
                "requested shard(s)")
        if index >= len(self.shards):
            return None
        return self.shards[index].spec

    def describe(self) -> str:
        axis = self.axis_param or "<whole study>"
        lines = [f"{self.parent.study} [{self.parent_hash[:12]}] "
                 f"axis {axis!r}: {len(self.unit_values)} unit(s) -> "
                 f"{self.shard_count} shard(s) "
                 f"({self.requested} requested)"]
        for shard in self.shards:
            units = ", ".join(str(value) for value in shard.units)
            lines.append(f"  shard {shard.index}/{self.shard_count} "
                         f"[{shard.spec.spec_hash()[:12]}] "
                         f"cost {shard.estimated_cost:g}: [{units}]")
        return "\n".join(lines)


def _balance(units: Sequence[ShardUnit], bins: int) -> list[list[int]]:
    """Longest-processing-time greedy assignment of units to bins.

    Deterministic: costs tie-break on the unit's grid position, bins on
    their index — every process computes the same packing.  Returns unit
    indices per bin, each bin sorted back into grid order.
    """
    order = sorted(range(len(units)), key=lambda i: (-units[i].cost, i))
    loads = [0.0] * bins
    packed: list[list[int]] = [[] for _ in range(bins)]
    for index in order:
        target = min(range(bins), key=lambda b: (loads[b], b))
        packed[target].append(index)
        loads[target] += max(units[index].cost, 1e-9)
    return [sorted(bin_units) for bin_units in packed]


class ShardPlanner:
    """Deterministically splits a spec's grid into disjoint shard specs."""

    def plan(self, spec: StudySpec | str, shards: int) -> ShardPlan:
        """Split ``spec`` (or a registered study's default spec) ``shards``
        ways.

        The grid is enumerated from the spec's resolved parameters, so
        plan a smoke spec (``spec.smoke()``) — not the full spec — when
        the shards will run with ``--smoke``.
        """
        if isinstance(spec, str):
            spec = build_spec(spec)
        if shards < 1:
            raise ExperimentError("a shard plan needs at least one shard")
        if is_shard_spec(spec):
            raise ExperimentError(
                f"spec {spec.spec_hash()[:12]} is already a shard of "
                f"{spec.params_dict.get('shard_parent', '')[:12]}; plan from "
                "its parent instead")
        axis = shard_axis_for(spec.study)
        params = spec.resolved_params()
        units = axis.units(params)
        if not units:
            raise ExperimentError(
                f"study {spec.study!r} has no grid units to shard "
                "(empty grid after filters?)")
        effective = min(shards, len(units))
        parent_hash = spec.spec_hash()
        assignments = []
        for index, unit_indices in enumerate(_balance(units, effective)):
            shard_spec = build_spec(
                spec.study, machine=spec.machine, cache_dir=spec.cache_dir,
                analysis=spec.analysis, **spec.params_dict,
                shard_index=index, shard_count=effective,
                shard_parent=parent_hash)
            assignments.append(ShardAssignment(
                index=index,
                spec=shard_spec,
                units=tuple(units[i].value for i in unit_indices),
                estimated_cost=sum(units[i].cost for i in unit_indices)))
        return ShardPlan(parent=spec, parent_hash=parent_hash,
                         requested=shards, axis_param=axis.param,
                         unit_values=tuple(unit.value for unit in units),
                         shards=tuple(assignments))


def plan_shards(spec: StudySpec | str, shards: int) -> ShardPlan:
    """Split a spec's grid (module-level convenience)."""
    return ShardPlanner().plan(spec, shards)


def plan_unit_shards(spec: StudySpec | str) -> ShardPlan:
    """Split a spec's grid into one shard **per grid unit**.

    Planning with ``shards == len(units)`` makes the LPT packing place
    exactly one unit in every shard, so each shard spec is the finest
    indivisible lease the elastic fleet (:mod:`repro.experiments.fleet`)
    can hand a worker — and because it is still an ordinary shard plan,
    :func:`merge_study_results` recombines the unit results bit-identically
    to the unsharded run (and to any coarser static plan's merge).
    """
    if isinstance(spec, str):
        spec = build_spec(spec)
    axis = shard_axis_for(spec.study)
    units = axis.units(spec.resolved_params())
    if not units:
        raise ExperimentError(
            f"study {spec.study!r} has no grid units to lease "
            "(empty grid after filters?)")
    return ShardPlanner().plan(spec, len(units))


def make_shard_spec(spec: StudySpec | str, index: int,
                    count: int) -> StudySpec | None:
    """The shard spec ``index`` of ``count`` for a parent spec.

    Returns ``None`` when the grid has fewer units than ``count`` and this
    shard received no work (the caller simply skips the study).
    """
    return ShardPlanner().plan(spec, count).spec_for(index)


# ---------------------------------------------------------------------------
# Shard resolution (what StudyRunner executes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardResolution:
    """A shard spec resolved against its recomputed plan."""

    spec: StudySpec
    parent: StudySpec
    plan: ShardPlan
    assignment: ShardAssignment
    #: The parent spec with its grid axis narrowed to this shard's units —
    #: what the study executor actually runs.
    sliced: StudySpec

    def metadata(self) -> dict[str, Any]:
        """Manifest-facing bookkeeping for a shard's artifacts."""
        return {
            "parent_spec": self.parent.to_dict(),
            "parent_hash": self.plan.parent_hash,
            "shard_index": self.assignment.index,
            "shard_count": self.plan.shard_count,
            "axis": self.plan.axis_param,
            "units": list(self.assignment.units),
        }


def resolve_shard(spec: StudySpec) -> ShardResolution:
    """Recompute a shard spec's plan and locate its slice of the grid.

    Fails loudly when the recorded parent hash does not match the spec's
    own grid (a hand-edited grid, or ``smoke()`` applied after planning —
    plan the smoke spec instead) or when the recorded shard count no
    longer matches the deterministic plan.
    """
    if not is_shard_spec(spec):
        raise ExperimentError("spec carries no shard markers")
    params = spec.resolved_params()
    index = params["shard_index"]
    count = params["shard_count"]
    recorded_parent = params["shard_parent"]
    parent = parent_spec(spec)
    if recorded_parent and parent.spec_hash() != recorded_parent:
        raise ExperimentError(
            f"shard spec records parent {recorded_parent[:12]} but its own "
            f"grid hashes to {parent.spec_hash()[:12]}; was the grid edited "
            "after planning (or smoke() applied to a planned shard)? "
            "Re-plan from the parent spec that will actually run")
    plan = ShardPlanner().plan(parent, count)
    if plan.shard_count != count:
        raise ExperimentError(
            f"shard spec records {count} shard(s) but the grid only "
            f"supports {plan.shard_count}; re-plan from the parent spec")
    assignment = plan.shards[index]
    sliced = parent
    if plan.axis_param is not None:
        sliced_params = parent.params_dict
        sliced_params[plan.axis_param] = assignment.units
        sliced = build_spec(parent.study, machine=parent.machine,
                            cache_dir=parent.cache_dir,
                            analysis=parent.analysis, **sliced_params)
    return ShardResolution(spec=spec, parent=parent, plan=plan,
                           assignment=assignment, sliced=sliced)


# ---------------------------------------------------------------------------
# The merge
# ---------------------------------------------------------------------------


def _shard_bookkeeping(result: StudyResult) -> tuple[int, int, str]:
    params = result.spec.resolved_params()
    return (params["shard_index"], params["shard_count"],
            params["shard_parent"])


def merge_study_results(results: Iterable[StudyResult]) -> StudyResult:
    """Recombine one study's shard results into the unsharded result.

    The merged :class:`~repro.experiments.study.StudyResult` has the
    parent spec, the full-grid row order and rows bit-identical to an
    unsharded run (whole-series derived columns are recomputed with the
    same arithmetic).  Wall-clock and cache accounting are summed across
    shards; the legacy payload object is not reconstructed
    (``payload=None``).

    Refuses, loudly: results of different studies, shards of different
    parents, duplicated/missing shard indices, rows outside a shard's
    assignment, overlapping or incomplete grid coverage, and specs with
    analysis hooks (hooks need the payload, which shards cannot ship).
    """
    results = list(results)
    if not results:
        raise ExperimentError("no shard results to merge")
    if len(results) == 1 and not is_shard_spec(results[0].spec):
        return results[0]
    studies = {result.spec.study for result in results}
    if len(studies) > 1:
        raise ExperimentError(
            f"cannot merge results of different studies {sorted(studies)}")
    strays = [result for result in results if not is_shard_spec(result.spec)]
    if strays:
        raise ExperimentError(
            f"cannot merge: {len(strays)} result(s) carry no shard markers")

    bookkeeping = [_shard_bookkeeping(result) for result in results]
    parents = {parent for _, _, parent in bookkeeping}
    if len(parents) > 1:
        raise ExperimentError(
            "cannot merge shards of different parents "
            f"{sorted(p[:12] for p in parents)}")
    counts = {count for _, count, _ in bookkeeping}
    if len(counts) > 1:
        raise ExperimentError(
            f"cannot merge: shards disagree on shard_count {sorted(counts)}")
    count = counts.pop()
    indices = sorted(index for index, _, _ in bookkeeping)
    duplicates = sorted({i for i in indices if indices.count(i) > 1})
    if duplicates:
        raise ExperimentError(
            f"cannot merge: duplicated shard index(es) {duplicates}")
    missing = sorted(set(range(count)) - set(indices))
    if missing:
        raise ExperimentError(
            f"cannot merge: missing shard index(es) {missing} of {count}")

    parent = parent_spec(results[0].spec)
    recorded = parents.pop()
    if recorded and parent.spec_hash() != recorded:
        raise ExperimentError(
            f"shards record parent {recorded[:12]} but their grid hashes to "
            f"{parent.spec_hash()[:12]}")
    if parent.analysis:
        raise ExperimentError(
            "cannot merge shards of a spec with analysis hooks; run the "
            "hooks on the merged result instead")
    plan = ShardPlanner().plan(parent, count)
    if plan.shard_count != count:
        raise ExperimentError(
            f"shards record {count} shard(s) but the recomputed plan has "
            f"{plan.shard_count}")
    axis = shard_axis_for(parent.study)
    params = parent.resolved_params()

    ordered = sorted(results, key=lambda result: _shard_bookkeeping(result)[0])
    columns = ordered[0].columns
    machines = {(result.machine_name, result.machine_fingerprint)
                for result in ordered}
    if len(machines) > 1:
        raise ExperimentError(
            f"cannot merge: shards ran on different machines "
            f"{sorted(str(m) for m in machines)}")
    for result in ordered:
        if result.columns != columns:
            raise ExperimentError("cannot merge: shards disagree on columns")

    covered: dict[Any, int] = {}
    keyed_rows: list[tuple[tuple, dict]] = []
    for result in ordered:
        index = _shard_bookkeeping(result)[0]
        assigned = set(plan.shards[index].units)
        for row in result.rows:
            unit = axis.row_unit(row, params)
            if unit not in assigned:
                raise ExperimentError(
                    f"shard {index} produced rows for unit {unit!r} outside "
                    f"its assignment {sorted(map(str, assigned))}")
            owner = covered.get(unit)
            if owner is not None and owner != index:
                raise ExperimentError(
                    f"overlapping coverage: unit {unit!r} appears in shards "
                    f"{owner} and {index}")
            covered[unit] = index
            keyed_rows.append((axis.row_key(row, params), row))
        if axis.param is None:
            # Whole-study fallback: the single shard carries every row,
            # so the tabulated position is the (unique, order-preserving)
            # key — content-derived keys don't exist for these studies.
            keyed_rows = [((position,), row)
                          for position, (_, row) in enumerate(keyed_rows)]
    uncovered = [unit for unit in plan.unit_values if unit not in covered]
    if uncovered:
        raise ExperimentError(
            f"incomplete coverage: no shard produced unit(s) "
            f"{[str(u) for u in uncovered]}")
    keys = [key for key, _ in keyed_rows]
    if len(set(keys)) != len(keys):
        raise ExperimentError("duplicate rows across shards")

    keyed_rows.sort(key=lambda item: item[0])
    rows = [row for _, row in keyed_rows]
    if axis.finalize_rows is not None:
        rows = axis.finalize_rows(rows, params)

    cache_stats = CacheStats()
    disk_stats = DiskCacheStats()
    execution: dict[str, int] = {}
    phases: dict[str, float] = {}
    for result in ordered:
        cache_stats = cache_stats.merge(result.cache_stats)
        disk_stats = disk_stats.merge(result.disk_stats)
        for tier, tally in result.execution.items():
            execution[tier] = execution.get(tier, 0) + tally
        merge_phases(phases, result.phases)
    machine_name, machine_fingerprint = machines.pop()
    return StudyResult(
        spec=parent,
        payload=None,
        columns=list(columns),
        rows=rows,
        machine_name=machine_name,
        machine_fingerprint=machine_fingerprint,
        elapsed_s=sum(result.elapsed_s for result in ordered),
        cache_stats=cache_stats,
        disk_stats=disk_stats,
        execution=execution,
        phases=phases,
    )


def group_by_parent(results: Iterable[StudyResult],
                    ) -> tuple[dict[str, list[StudyResult]], list[StudyResult]]:
    """Split results into shard families (by parent hash) and plain results."""
    families: dict[str, list[StudyResult]] = {}
    plain: list[StudyResult] = []
    for result in results:
        if is_shard_spec(result.spec):
            parent = _shard_bookkeeping(result)[2] or \
                parent_spec(result.spec).spec_hash()
            families.setdefault(parent, []).append(result)
        else:
            plain.append(result)
    return families, plain


def study_order_key(result: StudyResult) -> tuple:
    """Deterministic manifest order: registry order, then spec hash."""
    names = study_names()
    study = result.spec.study
    position = names.index(study) if study in names else len(names)
    return (position, result.spec_hash)
