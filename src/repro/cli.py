"""Command line interface: ``python -m repro`` / ``repro-sweep3d``.

The primary entrypoint is the declarative Study API
(:mod:`repro.experiments.study`): ``run`` executes registered studies or
spec files and writes JSON/CSV artifacts plus a run manifest, ``studies``
lists what is registered, and ``cache`` inspects/prunes the persistent
sweep store:

.. code-block:: console

    repro-sweep3d studies
    repro-sweep3d run table2 --smoke
    repro-sweep3d run table1 figure8 --out artifacts/
    repro-sweep3d run my-study.toml --out artifacts/
    repro-sweep3d run --all --smoke --out artifacts/
    repro-sweep3d run table2 --set max_pes=16 --set max_iterations=2
    repro-sweep3d cache stats --cache-dir ~/.cache/repro-sweep3d
    repro-sweep3d cache prune --cache-dir ~/.cache/repro-sweep3d \\
        --max-entries 5000 --max-age-s 604800

A study runs in one process.  Sharded execution splits one spec's grid
across processes or machines with zero coordination beyond a spec file
and a shared cache directory: ``shard plan`` shows (or writes) the
deterministic split, ``run --shard i/N`` executes one slice, and
``merge`` recombines the shard artifact directories into a run that
matches the unsharded one bit-for-bit (rows and CSVs; ``--expect``
asserts it).  ``fleet serve`` / ``fleet work`` lease the same grid units
to whatever workers show up:

.. code-block:: console

    repro-sweep3d shard plan table1 --shards 4
    repro-sweep3d run --all --smoke --shard 2/4 --out shard-2/ \\
        --cache-dir /shared/sweep-cache
    repro-sweep3d merge shard-0/ shard-1/ shard-2/ shard-3/ \\
        --out merged/ --expect reference/
    repro-sweep3d fleet serve --all --smoke --fleet-dir /shared/fleet \\
        --out merged/
    repro-sweep3d fleet work --fleet-dir /shared/fleet   # on each worker

Alongside the Study API sit the ad-hoc grid and inspection tools:

.. code-block:: console

    repro-sweep3d predict --machine opteron --px 4 --py 4
    repro-sweep3d simulate --backend predict --machine opteron \\
        --arrays 1x1,2x2,4x4
    repro-sweep3d simulate --machine pentium3 --px 2 --py 2 --iterations 2
    repro-sweep3d simulate --machine pentium3 --arrays 1x1,2x2,4x4 \\
        --iterations 2 --cache-dir ~/.cache/repro-sweep3d
    repro-sweep3d simulate --machine pentium3 --px 2 --py 2 --execution engine
    repro-sweep3d simulate --machine steady --px 4 --py 4 --execution steady
    repro-sweep3d simulate --machine steady --px 4 --py 4 --describe-trace
    repro-sweep3d simulate --machine pentium3 --px 2 --py 2 --samples 32
    repro-sweep3d run table2 --smoke --set sim_execution=engine
    repro-sweep3d run table2 --smoke --samples 16
    repro-sweep3d run noise-sensitivity --smoke
    repro-sweep3d machines
    repro-sweep3d hmcl --machine altix
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Sequence

from repro._version import __version__
from repro.errors import ExperimentError, ReproError
from repro.sweep3d.execution import EXECUTION_MODES

if TYPE_CHECKING:
    from repro.experiments.study import StudySpec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep3d",
        description="PACE predictive performance model of SWEEP3D "
                    "(reproduction of Mudalige et al., CLUSTER 2006)")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser(
        "run",
        help="run registered studies and/or spec files through the Study API")
    cmd.add_argument("studies", nargs="*", metavar="STUDY|SPEC-FILE",
                     help="registered study names and/or .toml/.json spec files")
    cmd.add_argument("--all", action="store_true",
                     help="run every registered study")
    cmd.add_argument("--smoke", action="store_true",
                     help="reduced grids (CI smoke: each study's smoke overrides)")
    cmd.add_argument("--cache-dir", default=None,
                     help="shared disk-backed sweep cache directory")
    cmd.add_argument("--out", default=None, metavar="DIR",
                     help="write JSON/CSV artifacts plus manifest.json here")
    cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     dest="overrides",
                     help="study parameter override (repeatable; values are "
                          "parsed as JSON, e.g. --set max_pes=16 "
                          "--set 'processor_counts=[1,16,256]')")
    cmd.add_argument("--shard", default=None, metavar="I/N",
                     help="run only shard I of an N-way deterministic split "
                          "of every selected study's grid (fleet execution; "
                          "see 'shard plan' and 'merge')")
    cmd.add_argument("--samples", type=int, default=None, metavar="S",
                     help="multi-seed uncertainty: studies that accept a "
                          "'samples' parameter replay every measurement "
                          "under S noise seeds and add mean/std/CI95 "
                          "columns (other selected studies are "
                          "unaffected)")

    cmd = sub.add_parser("studies", help="list the registered studies")
    cmd.add_argument("--json", action="store_true",
                     help="machine-readable listing: name, title, machine, "
                          "defaults, smoke overrides and shard axis per "
                          "study")

    cmd = sub.add_parser(
        "shard",
        help="plan how a study's grid splits across a fleet of machines")
    shard_sub = cmd.add_subparsers(dest="shard_command", required=True)
    scmd = shard_sub.add_parser(
        "plan", help="deterministically split a spec's grid into shard specs")
    scmd.add_argument("study", metavar="STUDY|SPEC-FILE",
                      help="registered study name or .toml/.json spec file")
    scmd.add_argument("--shards", type=int, default=2,
                      help="number of machines the grid splits across")
    scmd.add_argument("--smoke", action="store_true",
                      help="plan the reduced smoke grid (matches "
                           "'run --smoke --shard')")
    scmd.add_argument("--cache-dir", default=None,
                      help="shared sweep cache directory recorded in the "
                           "shard specs")
    scmd.add_argument("--set", action="append", default=[],
                      metavar="KEY=VALUE", dest="overrides",
                      help="study parameter override (values parsed as JSON)")
    scmd.add_argument("--out", default=None, metavar="DIR",
                      help="write each shard spec as a .toml file here")

    cmd = sub.add_parser(
        "merge",
        help="recombine shard artifact directories into one merged run")
    cmd.add_argument("dirs", nargs="+", metavar="DIR",
                     help="shard artifact directories (each holding a "
                          "manifest.json written by 'run --shard --out')")
    cmd.add_argument("--out", required=True, metavar="DIR",
                     help="directory for the merged artifacts + manifest")
    cmd.add_argument("--expect", default=None, metavar="DIR",
                     help="reference artifact directory (an unsharded run); "
                          "exit nonzero unless the merged artifacts match "
                          "it bit-for-bit (timing normalised)")

    cmd = sub.add_parser(
        "fleet",
        help="elastic shard fleet: lease grid units to workers with "
             "fault-tolerant reassignment")
    fleet_sub = cmd.add_subparsers(dest="fleet_command", required=True)
    fcmd = fleet_sub.add_parser(
        "serve",
        help="enqueue studies as leased units and supervise to completion")
    fcmd.add_argument("studies", nargs="*", metavar="STUDY|SPEC-FILE",
                      help="registered study names and/or .toml/.json spec files")
    fcmd.add_argument("--all", action="store_true",
                      help="enqueue every registered study")
    fcmd.add_argument("--fleet-dir", required=True, metavar="DIR",
                      help="shared work-queue directory (fresh per run)")
    fcmd.add_argument("--store", default=None, metavar="URL",
                      help="artifact store URL (file://DIR or mem://NAME; "
                           "default: <fleet-dir>/store)")
    fcmd.add_argument("--smoke", action="store_true",
                      help="reduced grids (each study's smoke overrides)")
    fcmd.add_argument("--set", action="append", default=[],
                      metavar="KEY=VALUE", dest="overrides",
                      help="study parameter override (values parsed as JSON)")
    fcmd.add_argument("--lease-ttl", type=float, default=30.0, metavar="S",
                      help="seconds a lease survives without a heartbeat "
                           "before its unit is reassigned (default 30)")
    fcmd.add_argument("--poll", type=float, default=0.2, metavar="S",
                      help="controller-loop cadence in seconds")
    fcmd.add_argument("--timeout", type=float, default=None, metavar="S",
                      help="fail the run after this many seconds")
    fcmd.add_argument("--out", default=None, metavar="DIR",
                      help="write the merged artifacts + manifest here")
    fcmd.add_argument("--expect", default=None, metavar="DIR",
                      help="reference artifact directory; exit nonzero "
                           "unless the merged artifacts match it bit-for-bit "
                           "(timing normalised)")
    fcmd = fleet_sub.add_parser(
        "work", help="claim, execute and publish fleet units until done")
    fcmd.add_argument("--fleet-dir", required=True, metavar="DIR",
                      help="the coordinator's shared work-queue directory")
    fcmd.add_argument("--store", default=None, metavar="URL",
                      help="artifact store URL override (default: the fleet "
                           "descriptor's store)")
    fcmd.add_argument("--worker-id", default=None,
                      help="stable worker identity (default: host-pid)")
    fcmd.add_argument("--cache-dir", default=None,
                      help="local sweep cache directory; warm entries sync "
                           "through the store")
    fcmd.add_argument("--poll", type=float, default=0.2, metavar="S",
                      help="queue scan cadence in seconds")
    fcmd.add_argument("--prefetch", type=int, default=1, metavar="N",
                      help="units claimed per scan (stragglers' surplus is "
                           "stolen back)")
    fcmd.add_argument("--throttle", type=float, default=0.0, metavar="S",
                      help="pause before each unit while heartbeating "
                           "(simulates a slow machine; chaos/bench aid)")
    fcmd.add_argument("--max-units", type=int, default=None, metavar="N",
                      help="exit after completing this many units")
    fcmd.add_argument("--wait-timeout", type=float, default=120.0,
                      metavar="S",
                      help="seconds to wait for the queue descriptor to "
                           "appear")
    fcmd = fleet_sub.add_parser(
        "status", help="snapshot a fleet directory's queue state")
    fcmd.add_argument("--fleet-dir", required=True, metavar="DIR")
    fcmd.add_argument("--json", action="store_true",
                      help="machine-readable snapshot")

    cmd = sub.add_parser(
        "cache",
        help="inspect or prune a sweep cache directory (incl. its trace and "
             "hardware stores)")
    cache_sub = cmd.add_subparsers(dest="cache_command", required=True)
    for cache_name, cache_help in (("stats", "entry count and on-disk size"),
                                   ("prune", "evict stale/excess entries")):
        ccmd = cache_sub.add_parser(cache_name, help=cache_help)
        ccmd.add_argument("--cache-dir", required=True,
                          help="sweep cache directory")
        if cache_name == "prune":
            ccmd.add_argument("--max-entries", type=int, default=None,
                              help="keep at most this many entries (oldest evicted)")
            ccmd.add_argument("--max-age-s", type=float, default=None,
                              help="evict entries stored more than this many "
                                   "seconds ago")

    cmd = sub.add_parser("predict", help="predict one configuration with the PACE model")
    cmd.add_argument("--machine", default="pentium3", help="machine name or alias")
    cmd.add_argument("--px", type=int, default=2)
    cmd.add_argument("--py", type=int, default=2)
    cmd.add_argument("--deck", default="validation",
                     help="standard deck name (validation, asci-20m, asci-1b, mini)")
    cmd.add_argument("--iterations", type=int, default=12)

    cmd = sub.add_parser(
        "simulate",
        help="run sweeps on the simulated cluster (batched scenario grid)")
    cmd.add_argument("--machine", default="pentium3")
    cmd.add_argument("--px", type=int, default=2)
    cmd.add_argument("--py", type=int, default=2)
    cmd.add_argument("--arrays", default=None,
                     help="comma-separated PXxPY processor arrays to sweep "
                          "(overrides --px/--py; e.g. 1x1,2x2,4x4)")
    cmd.add_argument("--deck", default="validation")
    cmd.add_argument("--iterations", type=int, default=12)
    cmd.add_argument("--numeric", action="store_true",
                     help="perform the real flux arithmetic (small grids only)")
    cmd.add_argument("--backend", default="simulate",
                     help="scenario backend to evaluate the grid with "
                          "(simulate or predict)")
    cmd.add_argument("--execution", default="auto",
                     choices=EXECUTION_MODES,
                     help="simulation tier: 'auto' picks the fastest "
                          "bit-identical tier (steady-state "
                          "extrapolation for noise-free periodic runs, "
                          "else trace replay, else the engine), 'engine' "
                          "forces the per-event reference engine, 'replay' "
                          "forces replay, 'steady' attempts the steady tier "
                          "and falls back to replay when it refuses; all "
                          "tiers are bit-identical (simulate backend only)")
    cmd.add_argument("--cache-dir", default=None,
                     help="disk-backed sweep cache directory (shared across "
                          "runs and processes)")
    cmd.add_argument("--samples", type=int, default=0, metavar="S",
                     help="replay every grid point under S noise seeds "
                          "and report mean/std/CI95 (simulate backend, "
                          "replay-capable execution)")
    cmd.add_argument("--no-noise", action="store_true",
                     help="disable the machine's OS/network noise model "
                          "(deterministic modelled runs; required for the "
                          "steady tier, which refuses noisy traces)")
    cmd.add_argument("--describe-trace", action="store_true",
                     help="capture each grid point's event trace and print "
                          "its period/steady-eligibility diagnostics instead "
                          "of running the sweep (simulate backend only)")

    sub.add_parser("machines", help="list the available machine presets")

    cmd = sub.add_parser("hmcl", help="print the HMCL hardware object of a machine")
    cmd.add_argument("--machine", default="pentium3")
    cmd.add_argument("--px", type=int, default=2)
    cmd.add_argument("--py", type=int, default=2)
    cmd.add_argument("--deck", default="validation")

    cmd = sub.add_parser(
        "serve",
        help="run the always-on prediction service (asyncio HTTP server)")
    cmd.add_argument("--host", default="127.0.0.1")
    cmd.add_argument("--port", type=int, default=8642)
    cmd.add_argument("--cache-dir", default=None,
                     help="disk-backed sweep cache directory (the persistent "
                          "tier behind the in-memory LRU)")
    cmd.add_argument("--workers", type=int, default=2,
                     help="threads evaluating coalesced request batches")
    cmd.add_argument("--lru-size", type=int, default=256,
                     help="entries held by the in-memory result tier "
                          "(0 disables it)")
    cmd.add_argument("--window-ms", type=float, default=2.0,
                     help="coalescing window: how long the first request of "
                          "a batch waits for mergeable company")
    cmd.add_argument("--artifact-dir", default=None,
                     help="where finished study jobs write their artifacts "
                          "(one sub-directory per job)")

    cmd = sub.add_parser("client",
                         help="talk to a running prediction service")
    cmd.add_argument("--host", default="127.0.0.1")
    cmd.add_argument("--port", type=int, default=8642)
    cmd.add_argument("--timeout", type=float, default=120.0)
    client_sub = cmd.add_subparsers(dest="client_command", required=True)
    ccmd = client_sub.add_parser("predict", help="one analytic prediction")
    ccmd.add_argument("--machine", default="pentium3")
    ccmd.add_argument("--px", type=int, default=2)
    ccmd.add_argument("--py", type=int, default=2)
    ccmd.add_argument("--deck", default="validation")
    ccmd.add_argument("--iterations", type=int, default=12)
    ccmd = client_sub.add_parser("simulate",
                                 help="one discrete-event simulation run")
    ccmd.add_argument("--machine", default="pentium3")
    ccmd.add_argument("--px", type=int, default=2)
    ccmd.add_argument("--py", type=int, default=2)
    ccmd.add_argument("--deck", default="validation")
    ccmd.add_argument("--iterations", type=int, default=12)
    ccmd.add_argument("--seed", type=int, default=0,
                      help="noise-seed offset (api.simulate's seed_offset)")
    ccmd.add_argument("--no-noise", action="store_true")
    ccmd.add_argument("--execution", default="auto",
                      choices=EXECUTION_MODES)
    ccmd.add_argument("--samples", type=int, default=0)
    ccmd = client_sub.add_parser(
        "submit", help="submit a study as a background job")
    ccmd.add_argument("study", metavar="STUDY|SPEC-FILE",
                      help="registered study name or .toml/.json spec file")
    ccmd.add_argument("--smoke", action="store_true",
                      help="submit the reduced smoke grid")
    ccmd.add_argument("--set", action="append", default=[],
                      metavar="KEY=VALUE", dest="overrides",
                      help="study parameter override (values parsed as JSON)")
    ccmd.add_argument("--wait", action="store_true",
                      help="block until the job finishes and print its status")
    ccmd = client_sub.add_parser("status", help="poll one job's state")
    ccmd.add_argument("job_id")
    ccmd = client_sub.add_parser(
        "result", help="fetch a finished job's full result artifact")
    ccmd.add_argument("job_id")
    ccmd.add_argument("--wait", action="store_true",
                      help="block until the job reaches a terminal state")
    ccmd = client_sub.add_parser("cancel", help="cancel a queued job")
    ccmd.add_argument("job_id")
    ccmd = client_sub.add_parser(
        "artifacts", help="list a finished job's artifact files")
    ccmd.add_argument("job_id")
    client_sub.add_parser("jobs", help="list every job and its state")
    client_sub.add_parser("health", help="server health and capabilities")
    client_sub.add_parser("stats", help="server counters (caches, coalescer)")
    return parser


def _parse_override(text: str) -> tuple[str, object]:
    """Parse one ``--set KEY=VALUE`` item (values are JSON, else strings)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ExperimentError(
            f"bad --set {text!r}; expected KEY=VALUE (e.g. max_pes=16)")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _overrides_for(study: str, overrides: dict,
                   used: set[str]) -> dict:
    """The subset of ``--set`` overrides the study's registry accepts."""
    from repro.experiments.study import get_study

    accepted = set(get_study(study).defaults)
    applicable = {key: value for key, value in overrides.items()
                  if key in accepted}
    used.update(applicable)
    return applicable


def _resolve_spec_token(token: str, overrides: dict,
                        used: set[str]) -> StudySpec:
    """A canonical spec from a study name or spec-file path, ``--set`` applied."""
    from repro.experiments.study import build_spec, load_spec

    if token.endswith((".toml", ".json")) or "/" in token:
        spec = load_spec(token)
        params = spec.params_dict
        params.update(_overrides_for(spec.study, overrides, used))
        return build_spec(spec.study, machine=spec.machine,
                          cache_dir=spec.cache_dir,
                          analysis=spec.analysis, **params)
    return build_spec(token, **_overrides_for(token, overrides, used))


def _parse_shard(text: str) -> tuple[int, int] | None:
    """Parse a ``--shard I/N`` selector (None on bad input)."""
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, count = int(index_text), int(count_text)
    except ValueError:
        print(f"bad --shard {text!r}; expected I/N (e.g. 0/4)")
        return None
    if count < 1 or not 0 <= index < count:
        print(f"bad --shard {text!r}; need 0 <= I < N")
        return None
    return index, count


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.study import StudyRunner, build_spec, study_names

    try:
        overrides = dict(_parse_override(item) for item in args.overrides)
    except ExperimentError as exc:
        print(exc)
        return 2
    exempt_from_unused: set[str] = set()
    if args.samples is not None:
        if args.samples < 0:
            print("--samples must be >= 0")
            return 2
        # Injected like --set samples=S, but studies without a 'samples'
        # parameter simply ignore it instead of failing the run.
        overrides["samples"] = args.samples
        exempt_from_unused.add("samples")
    shard_selector = None
    if args.shard is not None:
        shard_selector = _parse_shard(args.shard)
        if shard_selector is None:
            return 2
    used_overrides: set[str] = set()
    specs: list[StudySpec] = []
    if args.all:
        specs.extend(build_spec(name, **_overrides_for(name, overrides,
                                                       used_overrides))
                     for name in study_names())
    specs.extend(_resolve_spec_token(token, overrides, used_overrides)
                 for token in args.studies)
    if not specs:
        print("nothing to run: name studies/spec files or pass --all "
              f"(registered: {', '.join(study_names())})")
        return 2
    unused = set(overrides) - used_overrides - exempt_from_unused
    if unused:
        print(f"--set parameter(s) {sorted(unused)} not accepted by any "
              f"selected study")
        return 2

    smoke = args.smoke
    if shard_selector is not None:
        # The plan is computed on the grid that actually runs, so apply
        # the smoke reduction (and the runner-level cache directory, which
        # is part of the spec hash) before planning.
        from repro.experiments.sharding import make_shard_spec
        index, count = shard_selector
        resolved = [spec.with_overrides(cache_dir=args.cache_dir)
                    for spec in specs]
        if smoke:
            resolved = [spec.smoke() for spec in resolved]
            smoke = False
        specs = []
        for spec in resolved:
            shard = make_shard_spec(spec, index, count)
            if shard is None:
                print(f"shard {index}/{count}: {spec.study} has fewer grid "
                      "units than shards; no work here")
            else:
                specs.append(shard)

    runner = StudyRunner(cache_dir=args.cache_dir)
    results = runner.run_many(specs, smoke=smoke) if specs else []

    for result in results:
        print(f"== {result.spec.study} "
              f"[{result.spec_hash[:12]}] "
              f"({len(result.rows)} row(s), {result.elapsed_s:.2f} s) ==")
        print(result.describe())
        if result.disk_stats.hits or result.disk_stats.misses or \
                result.disk_stats.stores:
            print(result.disk_stats.describe())
        print()
    if args.out is not None:
        from repro.experiments.artifacts import write_study_artifacts
        # A shard that received no work still publishes a (study-less)
        # manifest so fleet collectors always find an artifact directory.
        manifest = write_study_artifacts(results, args.out,
                                         allow_empty=shard_selector is not None)
        print(f"wrote {len(results)} artifact pair(s) + {manifest}")
    return 0


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    from repro.experiments.sharding import plan_shards
    try:
        overrides = dict(_parse_override(item) for item in args.overrides)
    except ExperimentError as exc:
        print(exc)
        return 2
    used: set[str] = set()
    spec = _resolve_spec_token(args.study, overrides, used)
    unused = set(overrides) - used
    if unused:
        print(f"--set parameter(s) {sorted(unused)} not accepted by "
              f"{spec.study}")
        return 2
    spec = spec.with_overrides(cache_dir=args.cache_dir)
    if args.smoke:
        spec = spec.smoke()
    plan = plan_shards(spec, args.shards)
    print(plan.describe())
    if args.out is not None:
        from pathlib import Path
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for shard in plan.shards:
            path = out / f"{spec.study}-shard{shard.index}.toml"
            path.write_text(shard.spec.to_toml())
            print(f"wrote {path}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.experiments.artifacts import (
        compare_artifact_dirs,
        merge_manifests,
        read_manifest,
    )
    try:
        manifest = merge_manifests(args.dirs, args.out)
    except ExperimentError as exc:
        print(f"merge failed: {exc}")
        return 2
    merged = read_manifest(args.out)
    for entry in merged["studies"]:
        print(f"{entry['study']:<10} [{entry['spec_hash'][:12]}] "
              f"{entry['rows']} row(s)")
    print(f"merged {len(args.dirs)} director(y/ies) -> {manifest}")
    if args.expect is not None:
        try:
            diffs = compare_artifact_dirs(args.out, args.expect)
        except ExperimentError as exc:
            print(f"cannot compare against {args.expect}: {exc}")
            return 2
        if diffs:
            print(f"merged run does NOT match {args.expect}:")
            for diff in diffs:
                print(f"  - {diff}")
            return 1
        print(f"merged run matches {args.expect} bit-for-bit "
              "(timing normalised)")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.experiments.fleet import (
        FleetCoordinator,
        FleetWorker,
        fleet_status,
    )
    from repro.experiments.remotestore import store_from_url
    from repro.experiments.study import build_spec, study_names
    if args.fleet_command == "status":
        status = fleet_status(args.fleet_dir)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        print(f"fleet {status['fleet_dir']}: {status['status']}"
              + (f" ({status['reason']})" if status["reason"] else ""))
        print(f"units: {status['done']}/{status['unit_count']} done, "
              f"{status['leased']} leased, {status['open']} open")
        for worker in status["workers"]:
            state = "alive" if worker["alive"] else "stale"
            active = worker["active_unit"]
            unit = f", executing unit {active}" if active is not None else ""
            print(f"worker {worker['worker']}: {state}{unit}")
        print(f"events logged: {status['events']}")
        return 0

    if args.fleet_command == "work":
        store = store_from_url(args.store) if args.store else None
        worker = FleetWorker(args.fleet_dir, store=store,
                             worker_id=args.worker_id,
                             cache_dir=args.cache_dir, poll_s=args.poll,
                             prefetch=args.prefetch,
                             throttle_s=args.throttle)
        completed = worker.run(max_units=args.max_units,
                               wait_timeout_s=args.wait_timeout)
        print(f"worker {worker.worker_id}: completed {completed} unit(s)")
        return 0

    # fleet serve
    try:
        overrides = dict(_parse_override(item) for item in args.overrides)
    except ExperimentError as exc:
        print(exc)
        return 2
    used: set[str] = set()
    specs: list[StudySpec] = []
    if args.all:
        specs.extend(build_spec(name, **_overrides_for(name, overrides, used))
                     for name in study_names())
    specs.extend(_resolve_spec_token(token, overrides, used)
                 for token in args.studies)
    if not specs:
        print("nothing to serve: name studies/spec files or pass --all "
              f"(registered: {', '.join(study_names())})")
        return 2
    unused = set(overrides) - used
    if unused:
        print(f"--set parameter(s) {sorted(unused)} not accepted by any "
              f"selected study")
        return 2
    store = store_from_url(args.store) if args.store else None
    coordinator = FleetCoordinator(args.fleet_dir, store=store,
                                   lease_ttl_s=args.lease_ttl,
                                   poll_s=args.poll)
    units = coordinator.enqueue(specs, smoke=args.smoke)
    print(f"enqueued {units} unit(s) from {len(specs)} stud(y/ies) "
          f"at {args.fleet_dir}")
    outcome = coordinator.serve(timeout_s=args.timeout, out_dir=args.out)
    print(outcome.describe())
    if outcome.status != "done":
        return 2
    for result in outcome.results:
        print(f"{result.spec.study:<10} [{result.spec_hash[:12]}] "
              f"{len(result.rows)} row(s)")
    if args.expect is not None:
        from repro.experiments.artifacts import compare_artifact_dirs
        if args.out is None:
            print("--expect needs --out (the merged artifacts to compare)")
            return 2
        diffs = compare_artifact_dirs(args.out, args.expect)
        if diffs:
            print(f"fleet run does NOT match {args.expect}:")
            for diff in diffs:
                print(f"  - {diff}")
            return 1
        print(f"fleet run matches {args.expect} bit-for-bit "
              "(timing normalised)")
    return 0


def _cmd_studies(args: argparse.Namespace) -> int:
    from repro.experiments.study import get_study, study_names

    if args.json:
        from repro.experiments.sharding import shard_axis_for
        from repro.experiments.study import _listify
        listing = []
        for name in study_names():
            definition = get_study(name)
            listing.append({
                "name": name,
                "title": definition.title,
                "machine": definition.default_machine,
                "defaults": {key: _listify(value)
                             for key, value in definition.defaults.items()},
                "smoke": {key: _listify(value)
                          for key, value in definition.smoke_params.items()},
                "shard_axis": shard_axis_for(name).param,
            })
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    for name in study_names():
        definition = get_study(name)
        machine = definition.default_machine or "-"
        print(f"{name:<10} {machine:<28} {definition.title}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.diskcache import HardwareStore, SweepDiskCache
    from repro.simmpi.tracecache import TraceDiskCache
    cache = SweepDiskCache(args.cache_dir)
    # The sweep layer keeps its compiled-trace cache in a `traces/`
    # subdirectory of the sweep cache and the machines' campaign results
    # in `hardware/`; every tier is reported/pruned together so one
    # command covers everything the directory holds.
    stores = (("trace", "traces", TraceDiskCache(cache.path / "traces")),
              ("hardware", "hardware", HardwareStore(cache.path / "hardware")))
    if args.cache_command == "stats":
        print(f"cache directory: {cache.path}")
        print(f"entries: {len(cache)}")
        print(f"total bytes: {cache.total_bytes()}")
        for label, _, store in stores:
            print(f"{label} entries: {len(store)}")
            print(f"{label} total bytes: {store.total_bytes()}")
        return 0
    if args.max_entries is None and args.max_age_s is None:
        print("cache prune: give --max-entries and/or --max-age-s")
        return 2
    result = cache.prune(max_entries=args.max_entries,
                         max_age_s=args.max_age_s)
    print(result.describe())
    for _, name, store in stores:
        pruned = store.prune(max_entries=args.max_entries,
                             max_age_s=args.max_age_s)
        print(f"{name}: {pruned.describe()}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro import api
    from repro.core.workload import SweepWorkload
    from repro.machines.presets import get_machine
    from repro.sweep3d.input import standard_deck

    machine = get_machine(args.machine)
    deck = standard_deck(args.deck, px=args.px, py=args.py,
                         max_iterations=args.iterations)
    workload = SweepWorkload(deck, args.px, args.py)
    prediction = api.predict(machine, args.px, args.py, deck=deck)
    print(machine.describe())
    print(f"workload: {workload.describe()}")
    print(prediction.describe())
    return 0


def _parse_arrays(text: str) -> list[tuple[int, int]] | None:
    """Parse a ``1x1,2x2,...`` processor-array list (None on bad input)."""
    arrays: list[tuple[int, int]] = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            px_text, py_text = token.split("x", 1)
            px, py = int(px_text), int(py_text)
        except ValueError:
            print(f"bad processor array {token!r}; expected PXxPY (e.g. 4x4)")
            return None
        if px < 1 or py < 1:
            print(f"bad processor array {token!r}; dimensions must be >= 1")
            return None
        arrays.append((px, py))
    if not arrays:
        print("no processor arrays given")
        return None
    return arrays


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.backends import (
        PredictionBackend,
        SimulationBackend,
        simulation_grid,
    )
    from repro import units
    from repro.core.workload import SweepWorkload, load_sweep3d_model
    from repro.experiments.sweep import Scenario, ScenarioSweep, SweepRunner
    from repro.machines.presets import get_machine
    from repro.sweep3d.input import standard_deck

    machine = get_machine(args.machine)
    if args.arrays is not None:
        arrays = _parse_arrays(args.arrays)
        if arrays is None:
            return 2
    else:
        if args.px < 1 or args.py < 1:
            print("--px/--py must be >= 1")
            return 2
        arrays = [(args.px, args.py)]

    if args.describe_trace:
        if args.backend != "simulate":
            print("--describe-trace needs the simulate backend")
            return 2
        from repro.errors import TraceError
        print(machine.describe())
        for px, py in arrays:
            deck = standard_deck(args.deck, px=px, py=py,
                                 max_iterations=args.iterations)
            plan = machine.simulation_plan(deck, px, py, numeric=args.numeric)
            try:
                for line in plan.describe_capture():
                    print(f"{px}x{py}: {line}")
            except TraceError as exc:
                print(f"{px}x{py}: not trace-compilable ({exc})")
                return 2
        return 0

    # The grid's scenario variables depend on the backend's contract: the
    # simulation backend lowers (px, py) points itself; the prediction
    # backend takes PACE model variables plus one hardware object (weak
    # scaling: one profile serves every point).
    if args.backend == "simulate":
        try:
            backend = SimulationBackend(machine=machine, deck=args.deck,
                                        max_iterations=args.iterations,
                                        numeric=args.numeric,
                                        execution=args.execution,
                                        with_noise=not args.no_noise,
                                        samples=args.samples)
        except ExperimentError as exc:
            print(exc)
            return 2
        sweep = simulation_grid(arrays, deck=args.deck)
    elif args.backend == "predict":
        if args.samples:
            print("--samples needs the simulate backend")
            return 2
        first_deck = standard_deck(args.deck, px=arrays[0][0], py=arrays[0][1],
                                   max_iterations=args.iterations)
        hardware = machine.hardware_model(first_deck, arrays[0][0], arrays[0][1])
        backend = PredictionBackend(model=load_sweep3d_model(), hardware=hardware)
        sweep = ScenarioSweep()
        for px, py in arrays:
            deck = standard_deck(args.deck, px=px, py=py,
                                 max_iterations=args.iterations)
            workload = SweepWorkload(deck, px, py)
            sweep.add(Scenario(label=f"{px}x{py}",
                               variables=workload.model_variables(),
                               tags={"px": px, "py": py, "pes": px * py}))
    else:
        print(f"unknown backend {args.backend!r}; available: predict, "
              "simulate")
        return 2

    runner = SweepRunner(backend=backend, cache=args.cache_dir)
    outcomes = runner.run(sweep)

    print(machine.describe())
    if len(outcomes) == 1 and args.backend == "simulate":
        result = outcomes[0].result
        print(f"simulated run time: {units.format_seconds(result.elapsed_time)} "
              f"({result.total_messages} messages, "
              f"{result.compute_fraction * 100:.1f}% compute)")
        if getattr(result, "execution_tier", ""):
            print(f"execution tier: {result.execution_tier}")
        if result.n_samples:
            print(f"noise spread over {result.n_samples} seed(s): "
                  f"mean {units.format_seconds(result.elapsed_mean)} "
                  f"± {units.format_seconds(result.elapsed_ci95)} (95% CI), "
                  f"std {units.format_seconds(result.elapsed_std)}")
        if args.numeric and result.error_history:
            print(f"final flux error: {result.error_history[-1]:.3e} "
                  f"after {result.iterations} iterations")
    else:
        column = "Simulated" if args.backend == "simulate" else "Predicted"
        sampled = args.backend == "simulate" and args.samples > 0
        print(f"scenario grid via the {args.backend!r} backend "
              f"({args.deck} deck, {args.iterations} iteration(s), "
              f"{len(outcomes)} point(s)"
              + (f", {args.samples} sample(s)/point)" if sampled else ")"))
        header = f"{'Array':>8} {'PEs':>6} {column:>14}"
        if sampled:
            header += f" {'Mean':>14} {'95% CI':>14}"
        print(header)
        for outcome in outcomes:
            line = (f"{outcome.scenario.label:>8} {outcome.tags['pes']:>6} "
                    f"{units.format_seconds(outcome.total_time):>14}")
            if sampled:
                result = outcome.result
                line += (f" {units.format_seconds(result.elapsed_mean):>14}"
                         f" {units.format_seconds(result.elapsed_ci95):>14}")
            print(line)
    print(f"cache: {runner.stats.describe()}")
    if args.cache_dir is not None:
        print(f"disk: {runner.disk_stats.describe()}")
    return 0


def _cmd_hmcl(args: argparse.Namespace) -> int:
    from repro.core.hmcl.parser import format_hmcl
    from repro.machines.presets import get_machine
    from repro.sweep3d.input import standard_deck

    machine = get_machine(args.machine)
    deck = standard_deck(args.deck, px=args.px, py=args.py)
    hardware = machine.hardware_model(deck, args.px, args.py)
    print(format_hmcl(hardware))
    return 0


def _cmd_machines() -> int:
    from repro.machines.presets import MACHINE_PRESETS, get_machine

    for name in sorted(MACHINE_PRESETS):
        print(get_machine(name).describe())
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.core import run_server
    return run_server(host=args.host, port=args.port,
                      cache_dir=args.cache_dir, workers=args.workers,
                      lru_size=args.lru_size,
                      window_s=args.window_ms / 1000.0,
                      artifact_dir=args.artifact_dir)


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient
    from repro.service.protocol import encode

    client = ServiceClient(host=args.host, port=args.port,
                           timeout=args.timeout)
    command = args.client_command
    try:
        if command == "predict":
            response = client.predict(args.machine, args.px, args.py,
                                      deck=args.deck,
                                      iterations=args.iterations)
            print(f"predicted time: {response.total_time:.6f} s "
                  f"(compute {response.compute_time:.6f} s, "
                  f"communication {response.communication_time:.6f} s) "
                  f"[{response.source}]")
            return 0
        if command == "simulate":
            response = client.simulate(args.machine, args.px, args.py,
                                       deck=args.deck,
                                       iterations=args.iterations,
                                       with_noise=not args.no_noise,
                                       seed=args.seed,
                                       execution=args.execution,
                                       samples=args.samples)
            print(f"simulated time: {response.elapsed_time:.6f} s on "
                  f"{response.machine} ({response.px}x{response.py}, "
                  f"{response.total_messages} messages, "
                  f"tier {response.execution_tier or '?'}) "
                  f"[{response.source}]")
            if response.elapsed_samples:
                print(f"samples: n={len(response.elapsed_samples)} "
                      f"mean={response.elapsed_mean:.6f} s "
                      f"std={response.elapsed_std:.6f} s "
                      f"ci95={response.elapsed_ci95:.6f} s")
            return 0
        if command == "submit":
            overrides = dict(_parse_override(item)
                             for item in args.overrides)
            spec = _resolve_spec_token(args.study, overrides, set())
            response = client.submit_study(spec, smoke=args.smoke)
            if args.wait:
                response = client.wait(response.job_id)
            print(json.dumps(encode(response), indent=2, sort_keys=True))
            return 0 if response.state not in ("failed", "cancelled") else 1
        if command == "status":
            response = client.status(args.job_id)
        elif command == "result":
            if args.wait:
                client.wait(args.job_id)
            response = client.result(args.job_id)
        elif command == "cancel":
            response = client.cancel(args.job_id)
        elif command == "artifacts":
            response = client.artifacts(args.job_id)
        elif command == "jobs":
            response = client.jobs()
        elif command == "health":
            response = client.health()
        elif command == "stats":
            response = client.stats()
        else:  # pragma: no cover — argparse enforces the choices
            return 2
        print(json.dumps(encode(response), indent=2, sort_keys=True))
        return 0
    except (ServiceError, ExperimentError) as exc:
        print(f"error: {exc}")
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    A :class:`~repro.errors.ReproError` from any subcommand ends the
    command with one ``error: <message>`` line on stderr and exit code 2.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    command = args.command
    if command == "run":
        return _cmd_run(args)
    if command == "studies":
        return _cmd_studies(args)
    if command == "shard":
        return _cmd_shard_plan(args)
    if command == "merge":
        return _cmd_merge(args)
    if command == "fleet":
        try:
            return _cmd_fleet(args)
        except ExperimentError as exc:
            print(f"fleet failed: {exc}")
            return 2
    if command == "cache":
        return _cmd_cache(args)
    if command == "predict":
        return _cmd_predict(args)
    if command == "simulate":
        return _cmd_simulate(args)
    if command == "machines":
        return _cmd_machines()
    if command == "hmcl":
        return _cmd_hmcl(args)
    if command == "serve":
        return _cmd_serve(args)
    if command == "client":
        return _cmd_client(args)
    parser.error(f"unknown command {command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
