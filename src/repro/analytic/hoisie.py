"""The Los Alamos (Hoisie et al.) wavefront model.

Hoisie, Lubeck & Wasserman ("Performance and Scalability Analysis of
Teraflop-Scale Parallel Architectures using Multidimensional Wavefront
Applications", IJHPCA 2000; also equation (2) of the reproduced paper)
express the run time as

    T_total = T_computation + T_communication - T_overlap

with the pipelined wavefront captured by the well-known closed form

    T_iter = (N_blocks + pipeline_delay) * (T_block + T_msg)

where ``N_blocks = 8 Kb Ab`` is the number of pipelined stages each
processor executes per iteration and ``pipeline_delay`` counts the extra
stages the far-corner processor waits for across the octant sequence
(approximately ``2 (Px + Py - 2)`` for the two pairs of opposing corners of
the standard octant ordering).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hmcl.model import HardwareModel
from repro.core.workload import SweepWorkload
from repro.sweep3d.kernel import SweepKernel


@dataclass
class HoisieWavefrontModel:
    """Los Alamos style closed-form predictor for SWEEP3D."""

    hardware: HardwareModel

    # ------------------------------------------------------------------

    def block_compute_time(self, workload: SweepWorkload, seconds_per_flop: float) -> float:
        """Computation time of one pipelined block on one processor."""
        nx, ny, _ = workload.cells_per_processor
        deck = workload.deck
        flops = SweepKernel.flops_per_cell_angle() * nx * ny * deck.mk * deck.mmi
        return flops * seconds_per_flop

    def block_message_time(self, workload: SweepWorkload) -> float:
        """Communication time added to each pipeline stage."""
        nx, ny, _ = workload.cells_per_processor
        deck = workload.deck
        time = 0.0
        if workload.px > 1:
            ew_bytes = ny * deck.mk * deck.mmi * 8.0
            time += self.hardware.mpi.recv_cost(ew_bytes) + self.hardware.mpi.send_cost(ew_bytes)
        if workload.py > 1:
            ns_bytes = nx * deck.mk * deck.mmi * 8.0
            time += self.hardware.mpi.recv_cost(ns_bytes) + self.hardware.mpi.send_cost(ns_bytes)
        return time

    def predict(self, workload: SweepWorkload,
                seconds_per_flop: float | None = None) -> float:
        """Predicted run time of the full SWEEP3D execution.

        ``seconds_per_flop`` defaults to the hardware model's achieved
        floating point cost.
        """
        deck = workload.deck
        if seconds_per_flop is None:
            seconds_per_flop = self.hardware.cpu.seconds_per_flop

        blocks = 8 * deck.n_k_blocks * deck.n_angle_blocks
        t_block = self.block_compute_time(workload, seconds_per_flop)
        t_msg = self.block_message_time(workload)
        delay_stages = 2.0 * (workload.px - 1 + workload.py - 1)

        sweep_iteration = (blocks + delay_stages) * (t_block + t_msg)

        # Non-sweep serial work (source update, convergence test, balance
        # edit) and the two per-iteration collectives.
        nx, ny, _ = workload.cells_per_processor
        cells = nx * ny * deck.kt
        serial = 7.0 * cells * seconds_per_flop
        collective = self.hardware.mpi.collective_cost(workload.nranks, 8.0, phases=2) * 2.0

        return deck.max_iterations * (sweep_iteration + serial + collective)
