"""The KBA pipelined parallel SWEEP3D solver as a simulated-MPI rank program.

Each rank owns an ``nx x ny`` column of the grid (full k extent).  For every
octant, angle block and k block it

1. receives the incoming i-face flux from its upstream i neighbour and the
   incoming j-face flux from its upstream j neighbour (blocking receives,
   exactly as the original code's ``MPI_Recv`` calls),
2. sweeps the block of cells,
3. sends its outgoing faces to the downstream neighbours (blocking sends).

At the end of every source iteration the ranks perform a global maximum of
the local flux-change error (the model's ``globalmax`` parallel template)
and a global sum of the boundary leakage (the ``globalsum`` template).

Two compute modes are supported:

``numeric``
    The kernel really computes fluxes; payloads carry the face arrays.  Used
    for physics validation on small grids.

``modelled``
    No arithmetic is performed; messages carry only their byte counts.  Used
    for the large validation and speculative configurations, where the
    virtual cluster acts purely as a timing instrument (this is the
    substitution documented in DESIGN.md).

Both modes charge compute time from the kernel's operation-mix
characterisation, priced by the processor model through a
:class:`SweepCostTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import takewhile
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DecompositionError
from repro.simmpi.cart import Cart2D
from repro.simmpi.communicator import SimComm
from repro.simmpi.operations import OP_ALLREDUCE, ReduceOp
from repro.sweep3d.geometry import Decomposition, Octant, octant_order
from repro.sweep3d.input import Sweep3DInput
from repro.sweep3d.kernel import SweepKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simproc.processor import ProcessorModel

#: Message tags used by the sweep exchanges (east-west and north-south).
TAG_EW = 100
TAG_NS = 101


class SweepCostTable:
    """Memoised compute-charge durations for the modelled sweep.

    The rank program charges four kinds of modelled compute — the per-block
    sweep, the per-iteration source update, the convergence test and the
    particle-balance edit.  Each duration is a pure function of the block
    shape and the processor model, so a cost table builds and prices each
    distinct shape's operation mix once and is shared across all ranks of
    a run — and, held by a
    :class:`~repro.experiments.backends.SimulationBackend`, across every
    point of a scenario grid evaluated on the same processor model.

    The returned seconds are exactly ``processor.execute_time(mix)``, the
    price of a freshly built mix for every block.
    """

    __slots__ = ("processor", "hits", "misses", "_cache")

    def __init__(self, processor: "ProcessorModel"):
        self.processor = processor
        self.hits = 0
        self.misses = 0
        self._cache: dict[tuple, float] = {}

    # Each charge looks its key up first and builds the operation mix
    # only on a miss: a hit (nearly every charge of a run) allocates no
    # mix and no closure.

    def _store(self, key: tuple, mix) -> float:
        self.misses += 1
        value = self._cache[key] = self.processor.execute_time(mix)
        return value

    def block_seconds(self, nx: int, ny: int, nk: int, na: int,
                      working_set_bytes: float) -> float:
        """Duration of one (k-block, angle-block) sweep of ``nx x ny x nk`` cells."""
        key = ("block", nx, ny, nk, na, working_set_bytes)
        value = self._cache.get(key)
        if value is None:
            return self._store(key, SweepKernel.block_mix(
                nx, ny, nk, na, working_set_bytes=working_set_bytes))
        self.hits += 1
        return value

    def source_seconds(self, cells: int, working_set_bytes: float) -> float:
        """Duration of the per-iteration scattering-source update."""
        key = ("source", cells, working_set_bytes)
        value = self._cache.get(key)
        if value is None:
            return self._store(key, SweepKernel.source_mix(
                cells, working_set_bytes))
        self.hits += 1
        return value

    def flux_err_seconds(self, cells: int, working_set_bytes: float) -> float:
        """Duration of the per-iteration convergence test."""
        key = ("flux_err", cells, working_set_bytes)
        value = self._cache.get(key)
        if value is None:
            return self._store(key, SweepKernel.flux_err_mix(
                cells, working_set_bytes))
        self.hits += 1
        return value

    def balance_seconds(self, cells: int, working_set_bytes: float) -> float:
        """Duration of the particle-balance edit."""
        key = ("balance", cells, working_set_bytes)
        value = self._cache.get(key)
        if value is None:
            return self._store(key, SweepKernel.balance_mix(
                cells, working_set_bytes))
        self.hits += 1
        return value


@dataclass
class SweepPlanData:
    """Read-only per-deck data shared by every rank of a planned run.

    A plan builds the quadrature, the angle blocking and the k-plane block
    lists of both k directions once and hands the same immutable objects
    to every rank program.
    """

    quadrature: object
    angle_blocks: list
    #: k blocks in ascending-k traversal order (``kdir = +1``).
    k_blocks_up: list = field(default_factory=list)
    #: k blocks in descending-k traversal order (``kdir = -1``).
    k_blocks_down: list = field(default_factory=list)

    @classmethod
    def for_deck(cls, deck: Sweep3DInput) -> "SweepPlanData":
        kernel = SweepKernel(deck)
        quadrature = deck.quadrature()
        up = kernel.k_blocks()
        down = [block[::-1] for block in reversed(up)]
        return cls(quadrature=quadrature,
                   angle_blocks=quadrature.angle_blocks(deck.mmi),
                   k_blocks_up=up, k_blocks_down=down)

    def k_blocks(self, octant: Octant) -> list:
        """k blocks in the traversal order of ``octant``."""
        return self.k_blocks_up if octant.kdir > 0 else self.k_blocks_down


def make_decomposition(deck: Sweep3DInput, px: int, py: int) -> Decomposition:
    """Build and validate the 2-D decomposition of ``deck`` over ``px x py`` ranks."""
    decomp = Decomposition(grid=deck.grid(), cart=Cart2D(px, py))
    decomp.validate()
    return decomp


def sweep_rank_program(comm: SimComm, deck: Sweep3DInput, decomp: Decomposition,
                       numeric: bool, costs: SweepCostTable,
                       shared: SweepPlanData):
    """Generator rank program implementing the pipelined sweep.

    Returns (via ``StopIteration``) a per-rank summary dictionary with the
    local scalar flux (numeric mode), the per-iteration global error history
    and message statistics.

    ``numeric`` selects the real flux arithmetic (otherwise the run is
    timing-only).  ``costs`` and ``shared`` come from the
    :class:`~repro.sweep3d.driver.SimulationPlan`: every compute charge is
    a ``comm.compute`` of a duration from the memoised cost table, and the
    quadrature and blocking data are the same objects on every rank.
    """
    if decomp.nranks != comm.size:
        raise DecompositionError(
            f"decomposition expects {decomp.nranks} ranks, communicator has {comm.size}")
    cart = decomp.cart
    local = decomp.local_grid(comm.rank)
    nx, ny, kt = local.nx, local.ny, local.kt
    kernel = SweepKernel(deck)
    angle_blocks = shared.angle_blocks

    phi = np.zeros((nx, ny, kt)) if numeric else None
    error_history: list[float] = []
    leakage_history: list[float] = []
    blocks_swept = 0

    local_cells = nx * ny * kt
    local_working_set = kernel.working_set_bytes(nx, ny, kt)

    for iteration in range(deck.max_iterations):
        # Per-iteration scattering source update (the `source` subtask).
        yield comm.compute(costs.source_seconds(local_cells, local_working_set))
        if numeric:
            q_total = deck.sigma_s * phi + deck.fixed_source
            phi_new = np.zeros_like(phi)
        local_leakage = 0.0

        for octant in octant_order():
            up_i, up_j = cart.upstream(comm.rank, octant.idir, octant.jdir)
            dn_i, dn_j = cart.downstream(comm.rank, octant.idir, octant.jdir)
            k_blocks = shared.k_blocks(octant)
            for angles in angle_blocks:
                na = angles.n_angles
                psi_k = np.zeros((nx, ny, na)) if numeric else None
                for k_planes in k_blocks:
                    nk = len(k_planes)
                    ew_bytes = float(ny * nk * na * 8)
                    ns_bytes = float(nx * nk * na * 8)

                    # --- receive incoming faces from upstream neighbours ---
                    if up_i is not None:
                        psi_i = yield comm.recv(source=up_i, tag=TAG_EW)
                        if numeric and psi_i is None:
                            psi_i = np.zeros((ny, nk, na))
                    else:
                        psi_i = np.zeros((ny, nk, na)) if numeric else None
                    if up_j is not None:
                        psi_j = yield comm.recv(source=up_j, tag=TAG_NS)
                        if numeric and psi_j is None:
                            psi_j = np.zeros((nx, nk, na))
                    else:
                        psi_j = np.zeros((nx, nk, na)) if numeric else None

                    # --- compute the block ---
                    yield comm.compute(costs.block_seconds(
                        nx, ny, nk, na, local_working_set))
                    if numeric:
                        result = kernel.sweep_block(
                            octant, angles, k_planes, q_total,
                            psi_i, psi_j, psi_k, phi_new)
                        psi_k = result.psi_out_k
                        out_i, out_j = result.psi_out_i, result.psi_out_j
                        local_leakage += _boundary_leakage(
                            result, angles, deck, dn_i, dn_j)
                    else:
                        out_i = out_j = None
                    blocks_swept += 1

                    # --- send outgoing faces downstream ---
                    if dn_i is not None:
                        yield comm.send(out_i, dest=dn_i, tag=TAG_EW, nbytes=ew_bytes)
                    if dn_j is not None:
                        yield comm.send(out_j, dest=dn_j, tag=TAG_NS, nbytes=ns_bytes)
                if numeric:
                    # Flux leaving through the k boundary of the domain.
                    local_leakage += float(
                        (psi_k * (angles.xi * angles.weight)).sum()) * deck.dx * deck.dy

        # --- per-iteration convergence / balance collectives ---
        # Convergence test and particle-balance edit (the `flux_err` and
        # `balance` subtasks of the performance model).
        yield comm.compute(costs.flux_err_seconds(local_cells, local_working_set))
        yield comm.compute(costs.balance_seconds(local_cells, local_working_set))
        if numeric:
            local_error = _flux_error(phi, phi_new)
            phi = phi_new
        else:
            local_error = 1.0 / (iteration + 1)
        global_error = yield comm.allreduce(local_error, op="max")
        global_leakage = yield comm.allreduce(local_leakage, op="sum")
        error_history.append(float(global_error))
        leakage_history.append(float(global_leakage))
        if numeric and global_error <= deck.epsi and iteration > 0:
            break

    return {
        "rank": comm.rank,
        "phi_local": phi,
        "local_grid": local,
        "error_history": error_history,
        "leakage_history": leakage_history,
        "blocks_swept": blocks_swept,
        "iterations": len(error_history),
    }


def harvest_iteration_bodies(deck: Sweep3DInput, decomp: Decomposition,
                             costs: SweepCostTable,
                             shared: SweepPlanData) -> list[list]:
    """Each rank's ops of one *modelled* source iteration, up to its reductions.

    Drives :func:`sweep_rank_program` standalone, one rank at a time,
    through a one-iteration copy of ``deck``: every receive gets ``None``
    (the payload of every modelled send) and the drive stops at the first
    ``AllReduce``.  The generator thus stays the only definition of the
    op sequence; a modelled iteration yields exactly these ops (shared,
    immutable) before its two convergence reductions, whatever its index.
    """
    one = replace(deck, max_iterations=1)
    return [list(takewhile(
        lambda op: op.code != OP_ALLREDUCE,
        sweep_rank_program(SimComm(rank, decomp.nranks), one, decomp, False,
                           costs, shared)))
        for rank in range(decomp.nranks)]


def body_rank_program(comm: SimComm, deck: Sweep3DInput,
                      decomp: Decomposition, shared: SweepPlanData,
                      bodies: list[list]):
    """A modelled :func:`sweep_rank_program` replayed from harvested bodies.

    Per iteration it yields ``bodies[comm.rank]``
    (:func:`harvest_iteration_bodies`), then the two reductions exactly as
    the modelled generator builds them, and it returns the summary built
    from the reduction results it received.  The trace recorder runs it;
    the engine runs the generator, the reference the two are tested
    against.
    """
    body = bodies[comm.rank]
    error_history: list[float] = []
    leakage_history: list[float] = []
    for iteration in range(deck.max_iterations):
        yield from body
        global_error = yield comm.allreduce(1.0 / (iteration + 1), op="max")
        global_leakage = yield comm.allreduce(0.0, op="sum")
        error_history.append(float(global_error))
        leakage_history.append(float(global_leakage))
    return _modelled_summary(comm.rank, decomp, shared, error_history,
                             leakage_history)


def _modelled_summary(rank: int, decomp: Decomposition,
                      shared: SweepPlanData, error_history: list[float],
                      leakage_history: list[float]) -> dict:
    """A modelled rank's return value, as :func:`sweep_rank_program` builds it."""
    iterations = len(error_history)
    return dict(rank=rank, phi_local=None, local_grid=decomp.local_grid(rank),
                error_history=error_history, leakage_history=leakage_history,
                blocks_swept=(iterations * 8 * len(shared.angle_blocks)
                              * len(shared.k_blocks_up)),
                iterations=iterations)


def modelled_rank_summaries(deck: Sweep3DInput, decomp: Decomposition,
                            shared: SweepPlanData) -> list[dict]:
    """The per-rank return values of a *modelled* sweep, without running it.

    For ``numeric=False`` runs :func:`sweep_rank_program` performs no flux
    arithmetic, so its return dictionary is a pure function of the deck
    shape: ``local_error`` is the ``1/(iteration+1)`` placeholder, leakage
    stays zero, the convergence break never fires (it is gated on
    ``numeric``), and every iteration sweeps the same ``8 x angle_blocks x
    k_blocks`` block count.  Each reduction goes through the same
    :meth:`ReduceOp.combine` the engine and recorder use, once over every
    iteration's contributions, so the values match bit for bit.

    Periodic capture (:mod:`repro.simmpi.capture` via
    :meth:`~repro.sweep3d.driver.SimulationPlan.compile_trace`) uses this
    to synthesize the return values of iterations it never drives — after
    cross-checking the function against a recorded prefix.
    """
    nranks = decomp.nranks
    errors = np.array([1.0 / (iteration + 1)
                       for iteration in range(deck.max_iterations)])
    error_history = ReduceOp.MAX.combine([errors] * nranks).tolist()
    leakage_history = ReduceOp.SUM.combine(
        [np.zeros(deck.max_iterations)] * nranks).tolist()
    return [_modelled_summary(rank, decomp, shared, list(error_history),
                              list(leakage_history))
            for rank in range(nranks)]


def _boundary_leakage(result, angles, deck: Sweep3DInput,
                      dn_i: int | None, dn_j: int | None) -> float:
    """Leakage through downstream i/j faces that lie on the global boundary."""
    leak = 0.0
    weights = angles.weight
    if dn_i is None:
        leak += float((result.psi_out_i * (angles.mu * weights)).sum()) * deck.dy * deck.dz
    if dn_j is None:
        leak += float((result.psi_out_j * (angles.eta * weights)).sum()) * deck.dx * deck.dz
    return leak


def _flux_error(phi_old: np.ndarray, phi_new: np.ndarray) -> float:
    scale = float(np.abs(phi_new).max())
    if scale == 0.0:
        return float("inf")
    return float(np.abs(phi_new - phi_old).max() / scale)
