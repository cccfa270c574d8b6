"""Single-process reference solver for the SWEEP3D transport problem.

The serial solver executes the same kernel as the parallel code over the
whole grid.  It is used

* as the physics reference the parallel (numeric-mode) solver is compared
  against in the test suite,
* by the PAPI-substitute profiler, which characterises its per-iteration
  operation mix to obtain the achieved floating point rate on a simulated
  processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError
from repro.sweep3d.geometry import octant_order
from repro.sweep3d.input import Sweep3DInput
from repro.sweep3d.kernel import SweepKernel


@dataclass
class SerialSolveResult:
    """Outcome of a serial source-iteration solve."""

    deck: Sweep3DInput
    phi: np.ndarray
    iterations: int
    converged: bool
    error_history: list[float] = field(default_factory=list)
    #: Net outflow through the vacuum boundaries during the final iteration.
    boundary_leakage: float = 0.0
    #: Total negative-flux fixups applied during the final iteration.
    fixups: int = 0

    def mean_flux(self) -> float:
        return float(self.phi.mean())


class SerialSweepSolver:
    """Serial source-iteration driver around :class:`SweepKernel`."""

    def __init__(self, deck: Sweep3DInput):
        self.deck = deck
        self.kernel = SweepKernel(deck)

    # ------------------------------------------------------------------

    def solve(self, max_iterations: int | None = None,
              require_convergence: bool = False) -> SerialSolveResult:
        """Run source iterations until convergence or the iteration cap.

        Parameters
        ----------
        max_iterations:
            Overrides the deck's ``max_iterations`` when given.
        require_convergence:
            If true, raise :class:`~repro.errors.ConvergenceError` when the
            tolerance is not met within the allowed iterations.
        """
        deck = self.deck
        limit = max_iterations if max_iterations is not None else deck.max_iterations
        nx, ny, kt = deck.it, deck.jt, deck.kt
        phi = np.zeros((nx, ny, kt))
        history: list[float] = []
        leakage = 0.0
        fixups = 0
        converged = False

        for iteration in range(limit):
            phi_new, leakage, fixups = self._sweep_all_octants(phi)
            error = self._flux_error(phi, phi_new)
            history.append(error)
            phi = phi_new
            if error <= deck.epsi and iteration > 0:
                converged = True
                break

        if require_convergence and not converged:
            raise ConvergenceError(
                f"source iteration did not reach epsi={deck.epsi} within "
                f"{limit} iterations (final error {history[-1]:.3e})")
        return SerialSolveResult(deck=deck, phi=phi, iterations=len(history),
                                 converged=converged, error_history=history,
                                 boundary_leakage=leakage, fixups=fixups)

    # ------------------------------------------------------------------

    def _sweep_all_octants(self, phi_old: np.ndarray) -> tuple[np.ndarray, float, int]:
        """One source iteration: sweep every octant, angle block and k block."""
        deck = self.deck
        nx, ny, kt = deck.it, deck.jt, deck.kt
        quad = deck.quadrature()
        q_total = deck.sigma_s * phi_old + deck.fixed_source
        phi_new = np.zeros_like(phi_old)
        leakage = 0.0
        fixups = 0

        for octant in octant_order():
            for angles in quad.angle_blocks(deck.mmi):
                na = angles.n_angles
                psi_k = np.zeros((nx, ny, na))        # vacuum k boundary
                for k_planes in self.kernel.k_blocks_for_octant(octant):
                    nk = len(k_planes)
                    psi_i = np.zeros((ny, nk, na))    # vacuum i boundary
                    psi_j = np.zeros((nx, nk, na))    # vacuum j boundary
                    result = self.kernel.sweep_block(
                        octant, angles, k_planes, q_total,
                        psi_i, psi_j, psi_k, phi_new)
                    psi_k = result.psi_out_k
                    fixups += result.fixups
                    leakage += self._ij_boundary_leakage(result, angles, deck)
                # After the last k block, psi_k is the flux leaving through
                # the domain's k boundary in this octant's direction.
                leakage += float((psi_k * (angles.xi * angles.weight)).sum()) * deck.dx * deck.dy
        return phi_new, leakage, fixups

    @staticmethod
    def _ij_boundary_leakage(result, angles, deck: Sweep3DInput) -> float:
        """Outflow through the downstream i/j faces of a serial block.

        In the serial solver every block's downstream i and j faces are
        physical vacuum boundaries (there is only one processor), so the
        block's outgoing face fluxes leak straight out of the domain.
        """
        weights = angles.weight
        leak = float((result.psi_out_i * (angles.mu * weights)).sum()) * deck.dy * deck.dz
        leak += float((result.psi_out_j * (angles.eta * weights)).sum()) * deck.dx * deck.dz
        return leak

    @staticmethod
    def _flux_error(phi_old: np.ndarray, phi_new: np.ndarray) -> float:
        """Relative point-wise flux change, as the original code's ``dfmxi``."""
        scale = float(np.abs(phi_new).max())
        if scale == 0.0:
            return float("inf")
        return float(np.abs(phi_new - phi_old).max() / scale)
