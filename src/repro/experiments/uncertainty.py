"""Uncertainty quantification: multi-seed replay of the registered studies.

Every "measurement" this repository produces is one draw from the noise
model — one OS/network jitter stream applied to one simulated run.  The
batched trace replay (:meth:`repro.simmpi.trace.CompiledTrace.replay_batch`)
makes drawing *many* measurements nearly free: the event stream is
recorded once and ``S`` independently seeded noise streams advance through
one vectorised max-plus pass (a few seeds replay one by one, which costs
less than the pass's wave schedule).  This module packages that
capability as

* the ``noise-sensitivity`` study (registered in
  :mod:`repro.experiments.study`) — re-runs the scenario grid
  of any (or every) registered study through the simulation backend at
  ``samples`` noise seeds and tabulates mean/std/CI95 per scenario, and
* :func:`calibrate_noise` — fits the noise model's jitter amplitudes
  against the residual spread of a published validation table
  (:mod:`repro.experiments.paper_data`) using the profiling toolbox's
  line fit (:mod:`repro.profiling.curvefit`).

Sample 0 of every scenario runs at the seed the target study itself would
use, so the headline ``elapsed_s`` column is bit-identical to the
single-run measurement and the uncertainty block is strictly additive.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ExperimentError
from repro.experiments.backends import SimulationBackend
from repro.experiments.paper_data import PAPER_TABLES
from repro.experiments.sweep import Scenario, ScenarioSweep
from repro.profiling.curvefit import fit_single_line
from repro.simnet.noise import NoiseModel
from repro.sweep3d.input import Sweep3DInput

# ---------------------------------------------------------------------------
# Payload types
# ---------------------------------------------------------------------------


@dataclass
class ScenarioUncertainty:
    """Multi-seed statistics of one scenario of a target study.

    Scenarios above the study's ``max_processors`` cap are kept (so the
    table never silently shrinks) but carry ``samples == 0`` and ``None``
    statistics.
    """

    label: str
    px: int
    py: int
    samples: int
    elapsed: float | None = None
    elapsed_samples: tuple = ()
    mean: float | None = None
    std: float | None = None
    ci95: float | None = None

    @property
    def pes(self) -> int:
        return self.px * self.py

    @property
    def rel_std_pct(self) -> float | None:
        """Sample std as a percentage of the sample mean."""
        if not self.mean or self.std is None:
            return None
        return self.std / self.mean * 100.0


@dataclass
class StudyUncertainty:
    """The uncertainty table of one target study."""

    study: str
    machine_name: str
    scenarios: list[ScenarioUncertainty] = field(default_factory=list)

    def sampled(self) -> list[ScenarioUncertainty]:
        return [entry for entry in self.scenarios if entry.samples]

    @property
    def max_rel_std_pct(self) -> float:
        spreads = [entry.rel_std_pct for entry in self.sampled()
                   if entry.rel_std_pct is not None]
        return max(spreads) if spreads else 0.0


@dataclass
class NoiseSensitivityResult:
    """The ``noise-sensitivity`` study's payload: one block per target."""

    samples: int
    max_processors: int
    studies: list[StudyUncertainty] = field(default_factory=list)
    #: ``None``: the targets ran on their own (different) machines.
    machine_name: str | None = None

    def describe(self) -> str:
        lines = [f"noise sensitivity at {self.samples} sample(s) per scenario"]
        for entry in self.studies:
            sampled = entry.sampled()
            skipped = len(entry.scenarios) - len(sampled)
            line = (f"  {entry.study} on {entry.machine_name}: "
                    f"{len(sampled)} scenario(s), "
                    f"max spread {entry.max_rel_std_pct:.3f}% of mean")
            if skipped:
                line += (f" ({skipped} skipped by the max_processors/"
                         "max_scenarios caps)")
            lines.append(line)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Target-study scenario derivation
# ---------------------------------------------------------------------------


def _deck_variables(deck: Sweep3DInput) -> dict[str, int]:
    """Scenario variables pinning every integer shape parameter of a deck.

    The simulation backend instantiates scenarios from a *named* standard
    deck; overriding all of ``it/jt/kt/mk/mmi/sn/max_iterations`` makes the
    base name irrelevant (the named decks only preset those same shape
    parameters; the physics scalars are the shared dataclass defaults).
    """
    return {"it": deck.it, "jt": deck.jt, "kt": deck.kt, "mk": deck.mk,
            "mmi": deck.mmi, "sn": deck.sn,
            "max_iterations": deck.max_iterations}


def _figure_scenarios(figure: str, counts) -> list[Scenario]:
    from repro.experiments.figures import _deck_for_processors
    from repro.experiments.study import SPECULATIVE_STUDIES
    if figure not in SPECULATIVE_STUDIES:
        raise ExperimentError(
            f"unknown speculative study {figure!r}; "
            f"known: {sorted(SPECULATIVE_STUDIES)}")
    study = SPECULATIVE_STUDIES[figure]
    scenarios = []
    for nranks in counts:
        deck, px, py = _deck_for_processors(study, int(nranks))
        variables: dict[str, Any] = {"px": px, "py": py}
        variables.update(_deck_variables(deck))
        scenarios.append(Scenario(label=f"{figure} @{int(nranks)}",
                                  variables=variables))
    return scenarios


def _table_scenarios(table_name: str, params) -> list[Scenario]:
    from repro.experiments.tables import rows_for_indices
    indices = params.get("rows")
    if indices is not None:
        rows = rows_for_indices(table_name, indices)
    else:
        rows = list(PAPER_TABLES[table_name]["rows"])
    max_pes = params.get("max_pes")
    rows = [row for row in rows if max_pes is None or row.pes <= max_pes]
    # Matching the measurement grid of the table studies exactly — the
    # validation deck, per-row seed ``row.pes`` — makes sample 0 of every
    # scenario bit-identical to the table's "Measurement" column.
    return [
        Scenario(label=f"{row.data_size} on {row.px}x{row.py}",
                 variables={"px": row.px, "py": row.py, "seed": row.pes,
                            "max_iterations": params["max_iterations"]})
        for row in rows
    ]


def _target_scenarios(target: str, params) -> list[Scenario]:
    """The simulation scenario grid of one target study's resolved params."""
    if target in PAPER_TABLES:
        return _table_scenarios(target, params)
    if target in ("figure8", "figure9"):
        # The published figures sweep achieved-rate factors too, but the
        # simulated measurement does not depend on the analytic flop-rate
        # override, so each processor count is sampled once.
        counts = params["processor_counts"]
        if counts is None:
            from repro.experiments.study import SPECULATIVE_STUDIES
            counts = SPECULATIVE_STUDIES[target].processor_counts
        return _figure_scenarios(target, counts)
    if target in ("scaling", "agreement"):
        return _figure_scenarios(params["figure"], params["processor_counts"])
    if target == "blocking":
        px, py = int(params["px"]), int(params["py"])
        nx, ny, nz = (int(value) for value in params["cells_per_processor"])
        scenarios = []
        for mk in params["mk_values"]:
            for mmi in params["mmi_values"]:
                deck = Sweep3DInput(it=nx * px, jt=ny * py, kt=nz,
                                    mk=int(mk), mmi=int(mmi), sn=6,
                                    max_iterations=params["max_iterations"],
                                    label="blocking-study")
                variables: dict[str, Any] = {"px": px, "py": py}
                variables.update(_deck_variables(deck))
                scenarios.append(Scenario(label=f"mk={int(mk)} mmi={int(mmi)}",
                                          variables=variables))
        return scenarios
    if target == "steady-scaling":
        from repro.experiments.steadyscale import steady_scaling_scenarios
        return steady_scaling_scenarios(params)
    if target == "ablation":
        table_name = params["table"]
        if table_name not in PAPER_TABLES:
            raise ExperimentError(
                f"unknown table {table_name!r}; "
                f"expected one of {sorted(PAPER_TABLES)}")
        table_params = {"rows": (params["row_index"],),
                        "max_pes": None,
                        "max_iterations": params["max_iterations"]}
        return _table_scenarios(table_name, table_params)
    raise ExperimentError(
        f"the noise-sensitivity study cannot derive scenarios for {target!r}")


def _target_machine(target: str, params) -> str:
    from repro.experiments.study import get_study
    if target == "ablation":
        return PAPER_TABLES[params["table"]]["machine"]
    machine = get_study(target).default_machine
    if machine is None:
        raise ExperimentError(
            f"target study {target!r} declares no default machine")
    return machine


def _scenario_cost(scenario) -> float:
    """A relative event-count proxy for one scenario (cheapest-first caps).

    The simulated event stream grows with the rank count, the source
    iterations and the pipeline stages per octant sweep (``kt/mk`` k-blocks
    times ``6/mmi`` angle blocks); absent overrides fall back to the
    validation deck's shape.
    """
    variables = scenario.variables
    ranks = int(variables["px"]) * int(variables["py"])
    iterations = int(variables.get("max_iterations", 12))
    kt = int(variables.get("kt", 50))
    mk = int(variables.get("mk", 10))
    mmi = int(variables.get("mmi", 3))
    return ranks * iterations * (kt / max(mk, 1)) * (6.0 / max(mmi, 1))


def _run_noise_sensitivity(spec, context) -> NoiseSensitivityResult:
    from repro.experiments.study import build_spec, get_study, study_names
    params = spec.resolved_params()
    samples = int(params["samples"])
    if samples < 1:
        raise ExperimentError("the noise-sensitivity study needs samples >= 1")
    max_processors = int(params["max_processors"])
    if max_processors < 1:
        raise ExperimentError("max_processors must be >= 1")
    iteration_cap = params["iteration_cap"]
    max_scenarios = params["max_scenarios"]
    if max_scenarios is not None and int(max_scenarios) < 1:
        raise ExperimentError("max_scenarios must be >= 1 (or unset)")
    target = params["target"]
    if target == "all":
        targets = [name for name in study_names() if name != spec.study]
    else:
        if target == spec.study:
            raise ExperimentError(
                "the noise-sensitivity study cannot target itself")
        get_study(target)
        targets = [target]

    result = NoiseSensitivityResult(samples=samples,
                                    max_processors=max_processors)
    for name in targets:
        target_spec = build_spec(name, machine=spec.machine)
        if params["target_smoke"]:
            target_spec = target_spec.smoke()
        target_params = target_spec.resolved_params()
        machine_name = spec.machine or _target_machine(name, target_params)
        machine = context.machine(machine_name)
        block = StudyUncertainty(study=name, machine_name=machine_name)
        scenarios = _target_scenarios(name, target_params)
        runnable = []
        seen = set()
        for scenario in scenarios:
            if iteration_cap is not None:
                iterations = int(scenario.variables.get("max_iterations", 12))
                scenario.variables["max_iterations"] = min(iterations,
                                                           int(iteration_cap))
            px = int(scenario.variables["px"])
            py = int(scenario.variables["py"])
            identity = tuple(sorted(scenario.variables.items()))
            if identity in seen:
                continue
            seen.add(identity)
            entry = ScenarioUncertainty(label=scenario.label, px=px, py=py,
                                        samples=0)
            block.scenarios.append(entry)
            if px * py <= max_processors:
                runnable.append((entry, scenario))
        if max_scenarios is not None and len(runnable) > int(max_scenarios):
            # Keep the cheapest scenarios (event-count proxy); the rest
            # stay listed with samples == 0 like the max_processors cap,
            # so the cap is never silent.
            runnable.sort(key=lambda pair: _scenario_cost(pair[1]))
            runnable = runnable[:int(max_scenarios)]
        if runnable:
            backend = SimulationBackend(machine, deck="validation",
                                        samples=samples)
            runner = context.backend_runner(backend)
            sweep = ScenarioSweep([scenario for _, scenario in runnable])
            for (entry, _), outcome in zip(runnable, runner.run(sweep)):
                measurement = outcome.result
                entry.samples = measurement.n_samples
                entry.elapsed = measurement.elapsed_time
                entry.elapsed_samples = tuple(measurement.elapsed_samples)
                entry.mean = measurement.elapsed_mean
                entry.std = measurement.elapsed_std
                entry.ci95 = measurement.elapsed_ci95
        result.studies.append(block)
    if len({block.machine_name for block in result.studies}) == 1:
        result.machine_name = result.studies[0].machine_name
    return result


# ---------------------------------------------------------------------------
# Noise calibration against the published tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseCalibration:
    """Jitter amplitudes fitted to a published validation table.

    The paper attributes its residual prediction error "largely to
    background processes, network load and minor fluctuations" — this is
    the inverse problem: read the published measured/predicted columns,
    remove the systematic component with a least-squares line
    (:func:`repro.profiling.curvefit.fit_single_line`: measured as a
    linear function of predicted), and moment-match the noise model's
    log-normal jitter to the relative spread of what remains.  The split
    between compute and network jitter keeps the target machine's
    configured ratio, since a single table cannot separate the two.
    """

    table: str
    machine_name: str
    compute_jitter: float
    network_jitter: float
    #: Relative residual spread of the detrended measured column.
    residual_rel_std: float
    #: The systematic-trend line (measured ~ intercept + slope*predicted).
    intercept: float
    slope: float
    n_rows: int

    def noise_model(self, seed: int = 0,
                    base: NoiseModel | None = None) -> NoiseModel:
        """A noise model carrying the calibrated jitter amplitudes.

        ``base`` supplies the non-fitted parameters (daemon noise); by
        default they are the :class:`~repro.simnet.noise.NoiseModel`
        defaults.
        """
        model = base if base is not None else NoiseModel(seed=seed)
        return replace(model, seed=seed,
                       compute_jitter=self.compute_jitter,
                       network_jitter=self.network_jitter)

    def machine_overrides(self) -> dict[str, float]:
        """Keyword overrides for a machine preset factory."""
        return {"compute_jitter": self.compute_jitter,
                "network_jitter": self.network_jitter}


def calibrate_noise(table_name: str, machine=None) -> NoiseCalibration:
    """Fit jitter amplitudes to one published validation table.

    ``machine`` (a :class:`~repro.machines.machine.Machine` or preset
    name) defaults to the table's own machine and only contributes the
    compute/network jitter *ratio* the calibrated amplitudes preserve.
    """
    if table_name not in PAPER_TABLES:
        raise ExperimentError(
            f"unknown table {table_name!r}; expected one of {sorted(PAPER_TABLES)}")
    spec = PAPER_TABLES[table_name]
    rows = [row for row in spec["rows"] if row.measured > 0]
    if len(rows) < 2:
        raise ExperimentError(
            f"{table_name} has too few measured rows to calibrate noise")
    from repro.machines.presets import get_machine
    if machine is None:
        machine = get_machine(spec["machine"])
    elif isinstance(machine, str):
        machine = get_machine(machine)

    predicted = [row.predicted for row in rows]
    measured = [row.measured for row in rows]
    trend = fit_single_line(predicted, measured)
    residual_rel = [
        (value - trend.evaluate(pred)) / value
        for pred, value in zip(predicted, measured)
    ]
    rel_std = statistics.stdev(residual_rel)
    # Moment match: a run is a chain of log-normally jittered segments, so
    # to first order the relative spread of the total equals the per-site
    # sigma scale.  One table cannot separate compute from network noise;
    # keep the machine's configured ratio between the two amplitudes.
    base_compute = machine.compute_jitter
    base_network = machine.network_jitter
    if base_compute > 0:
        ratio = base_network / base_compute
    else:
        ratio = 1.0 if base_network == 0 else math.inf
    if math.isinf(ratio):
        compute_jitter = 0.0
        network_jitter = rel_std
    else:
        compute_jitter = rel_std
        network_jitter = rel_std * ratio
    return NoiseCalibration(
        table=table_name,
        machine_name=machine.name,
        compute_jitter=float(compute_jitter),
        network_jitter=float(network_jitter),
        residual_rel_std=float(rel_std),
        intercept=float(trend.B),
        slope=float(trend.C),
        n_rows=len(rows),
    )
