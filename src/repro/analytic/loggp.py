"""A LogGP rendition of the SWEEP3D wavefront model.

Sundaram-Stukel & Vernon (PPoPP'99) model SWEEP3D in the LogGP parameters:

* ``L`` — network latency,
* ``o`` — per-message CPU overhead (send or receive side),
* ``g`` — gap between consecutive messages,
* ``G`` — gap per byte (reciprocal bandwidth),
* ``P`` — processor count,

interleaving the per-block computation ``W`` with the communication of the
east-west and north-south boundary messages at every pipeline stage.  The
formulation below follows that structure for the blocking-send/receive
implementation of SWEEP3D:

* a processor's cost per block (steady state):
  ``T_stage = W + 2 (2o + L + m G)`` for an interior processor
  (one receive and one send in each of the two directions),
* the pipeline fill from the sweep origin to the far corner costs
  ``(Px + Py - 2)`` hops of ``W + 2o + L + m G`` for each of the four
  corner changes of the octant-pair sequence,
* one iteration performs ``8 Kb Ab`` blocks per processor.

This is a *baseline*: the exact bookkeeping of the original paper (repeated
sweeps, limited octant overlap) is approximated, which is precisely why the
PACE model — which evaluates the dependency structure — is the primary
predictor of the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hmcl.model import HardwareModel
from repro.core.workload import SweepWorkload
from repro.errors import ModelError
from repro.sweep3d.kernel import SweepKernel


@dataclass(frozen=True)
class LogGPParameters:
    """The LogGP machine parameters (seconds / seconds-per-byte)."""

    latency: float          # L
    overhead: float         # o
    gap: float              # g
    gap_per_byte: float     # G

    def __post_init__(self) -> None:
        for name in ("latency", "overhead", "gap", "gap_per_byte"):
            if getattr(self, name) < 0:
                raise ModelError(f"LogGP parameter {name} must be >= 0")

    @classmethod
    def from_hardware(cls, hardware: HardwareModel) -> "LogGPParameters":
        """Derive LogGP parameters from a fitted HMCL mpi section.

        The small-message terms are read at an 8-byte (one double) probe.
        """
        probe_bytes = 8.0
        overhead = hardware.mpi.send_cost(probe_bytes)
        latency = max(0.0, hardware.mpi.delivery_cost(probe_bytes) - overhead)
        large = 65536.0
        per_byte = max(0.0, (hardware.mpi.delivery_cost(large)
                             - hardware.mpi.delivery_cost(probe_bytes)) / (large - probe_bytes))
        return cls(latency=latency, overhead=overhead,
                   gap=hardware.mpi.recv_cost(probe_bytes), gap_per_byte=per_byte)

    def one_way(self, nbytes: float) -> float:
        """End-to-end one-way time of an ``nbytes`` message under LogGP."""
        return self.overhead + self.latency + nbytes * self.gap_per_byte + self.overhead


@dataclass
class LogGPWavefrontModel:
    """LogGP-based predictor for the pipelined SWEEP3D sweep."""

    parameters: LogGPParameters

    def predict(self, workload: SweepWorkload, seconds_per_flop: float) -> float:
        """Predicted run time of the full (12-iteration) SWEEP3D execution.

        ``seconds_per_flop`` is the achieved serial cost of one floating
        point operation (the same quantity the PACE hardware layer holds).
        """
        deck = workload.deck
        px, py = workload.px, workload.py
        nx, ny, _ = workload.cells_per_processor
        params = self.parameters

        kb = deck.n_k_blocks
        ab = deck.n_angle_blocks
        blocks = 8 * kb * ab

        flops_per_block = (SweepKernel.flops_per_cell_angle()
                           * nx * ny * deck.mk * deck.mmi)
        work = flops_per_block * seconds_per_flop

        ew_bytes = ny * deck.mk * deck.mmi * 8.0
        ns_bytes = nx * deck.mk * deck.mmi * 8.0
        comm_per_stage = 0.0
        if px > 1:
            comm_per_stage += (2.0 * params.overhead + params.latency
                               + ew_bytes * params.gap_per_byte)
        if py > 1:
            comm_per_stage += (2.0 * params.overhead + params.latency
                               + ns_bytes * params.gap_per_byte)

        stage = work + comm_per_stage
        hop = work + params.one_way(max(ew_bytes, ns_bytes)) if (px > 1 or py > 1) else work
        fill = (px - 1 + py - 1) * hop

        # Four corner changes per iteration (the octant pairs), each repaying
        # roughly half of the full fill because consecutive corners share an
        # edge of the processor array.
        refill = 2.0 * fill

        sweep_iteration = blocks * stage + fill + refill

        # Per-iteration serial phases and the two small collectives.
        cells = nx * ny * deck.kt
        serial = (2.0 + 4.0 + 1.0) * cells * seconds_per_flop
        collective = 2.0 * _tree_depth(px * py) * 2.0 * params.one_way(8.0)

        return deck.max_iterations * (sweep_iteration + serial + collective)


def _tree_depth(nranks: int) -> int:
    depth = 0
    remaining = nranks - 1
    while remaining > 0:
        depth += 1
        remaining //= 2
    return depth
