"""Experiment harness: declarative studies over one batch sweep runner.

Every experiment is a **registered study**: a named entry in the
:mod:`repro.experiments.study` registry whose workload is described by a
frozen, JSON/TOML-serializable :class:`~repro.experiments.study.StudySpec`
(machine preset, backend, grid parameters, workers, cache directory,
analysis hooks).  One :class:`~repro.experiments.study.StudyRunner`
executes any number of specs in a single invocation — the PSL model is
parsed and compiled once, one disk-backed
:class:`~repro.experiments.diskcache.SweepDiskCache` and one
multiprocessing pool are shared across studies — and emits typed
:class:`~repro.experiments.study.StudyResult` artifacts with uniform
JSON/CSV export and a run manifest
(:mod:`repro.experiments.artifacts`).  A spec file plus a shared cache
directory is the unit of work a fleet of machines can split.

Underneath, every study still reduces to scenario grids evaluated by the
:class:`~repro.experiments.sweep.SweepRunner` through a scenario backend
(:mod:`repro.experiments.backends`): ``"predict"`` is the compiled
analytic PACE pipeline, ``"simulate"`` the discrete-event SWEEP3D
simulator.

A run time comes in one of **four result shapes** — the middle two
bit-identical to each other, so the shape never changes a number:

1. **analytic** — the compiled PACE pipeline plus the LogGP/Hoisie
   comparison closed forms (:mod:`repro.analytic`) — chosen for
   predictions and speculative studies, approximate by design (the gap
   is the paper's validation error);
2. **modelled** — the reference engine
   (:class:`~repro.simmpi.engine.ClusterEngine`), the per-event
   discrete-event ground truth and the only simulated shape for
   ``numeric`` runs or timing-dependent patterns (chosen for those, or
   on request via ``sim_execution="engine"``);
3. **replayed** (:mod:`repro.simmpi.trace`): a modelled run's event
   pattern is recorded once per
   :class:`~repro.sweep3d.driver.SimulationPlan` and each run resolves
   as a vectorised max-plus recurrence — bit-identical to the engine at
   matched noise seeds, ~10-25x faster, chosen automatically for
   modelled scenarios (``sim_execution="auto"``, the default);
4. **sampled** — the batched multi-seed replay
   (:meth:`~repro.simmpi.trace.CompiledTrace.replay_batch`): ``S``
   independently seeded noise streams advance through one max-plus pass
   and a run becomes a distribution (per-sample elapsed times plus
   mean/std/CI95); sample 0 runs at the scenario's own seed, so the
   headline number stays bit-identical to shapes 2-3 and the
   uncertainty block is strictly additive (the ``samples`` parameter of
   the table studies, ``repro.api.simulate``, the CLI and the
   ``noise-sensitivity`` study; see
   :mod:`repro.experiments.uncertainty`).

The registered studies:

* ``table1``/``table2``/``table3`` — validation of the PACE model against
  (simulated) measured run times on the three clusters
  (:mod:`repro.experiments.tables`); the prediction column is a row grid,
  the measurement column is attached from the discrete-event simulator.
* ``figure8``/``figure9`` — the speculative scaling study: a (rate factor
  x processor count) grid on the hypothetical 8000-processor machine
  (:mod:`repro.experiments.figures`).
* ``blocking`` — an (mk, mmi) grid (:mod:`repro.experiments.blocking`).
* ``scaling`` — weak-scaling metrics over a processor-count grid
  (:mod:`repro.experiments.scaling`).
* ``ablation`` — legacy per-opcode benchmarking vs the coarse
  achieved-rate approach (:mod:`repro.experiments.ablation`).
* ``agreement`` — PACE vs LogGP vs the Los Alamos model
  (:mod:`repro.experiments.agreement`).
* ``noise-sensitivity`` — multi-seed uncertainty quantification: the
  scenario grid of any (or every) registered study re-run at ``samples``
  noise seeds through the batched trace replay
  (:mod:`repro.experiments.uncertainty`).
* ``steady-scaling`` — modelled grids far beyond the paper's tables
  (256M cells, hundred-iteration runs) through the steady-state
  periodic-trace execution tier (:mod:`repro.experiments.steadyscale`).

Every study's grid is also **shardable**
(:mod:`repro.experiments.sharding`): a deterministic, cost-balanced
:class:`~repro.experiments.sharding.ShardPlanner` splits a spec into
disjoint shard specs any machine can run independently against the
shared cache directory, and the merge layer
(:func:`~repro.experiments.sharding.merge_study_results`,
:func:`~repro.experiments.artifacts.merge_manifests`) recombines shard
results bit-identically to an unsharded run.  On top of the static
plan sits the **elastic fleet** (:mod:`repro.experiments.fleet`): a
:class:`~repro.experiments.fleet.FleetCoordinator` leases one-unit
shards to workers with heartbeat-renewed fault-tolerant leases
(crashed workers' units are reassigned, stragglers' surplus stolen),
shard results and warm cache entries flowing between machines through
an :class:`~repro.experiments.remotestore.ArtifactStore` — and the
merged rows stay bit-identical to the static plan and the unsharded
run, whatever the kill schedule.

A spec is the one way to run a study: ``run_study(build_spec("figure8",
processor_counts=[1, 16]))`` in Python, ``repro-sweep3d run figure8 --set
'processor_counts=[1,16]'`` on the command line.  The published numbers
of the paper are transcribed in :mod:`repro.experiments.paper_data` so
every report can show paper-vs-reproduced values side by side.  The CLI
front end is ``repro-sweep3d run <study|spec-file> [--all] [--smoke]
[--shard I/N] [--out DIR]`` (plus ``studies``, ``shard plan``, ``merge``,
``cache {stats,prune}`` and the ad-hoc ``simulate --arrays`` grids); the
stable import surface is :mod:`repro.api`.
"""
