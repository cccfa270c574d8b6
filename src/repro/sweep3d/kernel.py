"""The serial SWEEP3D compute kernel and its operation-count characterisation.

Two views of the same kernel live here:

* :meth:`SweepKernel.sweep_block` — a *numeric* diamond-difference sweep of
  one (k-block, angle-block) of cells, used by the serial and parallel
  solvers when physical answers are wanted (tests, small examples).  It
  implements the standard balance + diamond auxiliary relations with an
  optional negative-flux fixup and accumulates the scalar flux.

* :meth:`SweepKernel.cell_mix` / :meth:`SweepKernel.block_mix` — the
  *characterisation* of the original C kernel as an operation tally (the
  clc flow description of the paper).  The counts correspond to the full
  LANL kernel — including the P1 flux-moment accumulation and the DSA face
  currents that the production code computes — and therefore slightly
  exceed what the simplified numeric Python kernel executes.  The bundled C
  source analysed by ``capp`` (``repro/core/resources/csrc/sweep_kernel.c``)
  matches these counts; tests assert that agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import units
from repro.errors import Sweep3DError
from repro.simproc.opcodes import OperationMix
from repro.sweep3d.geometry import Octant
from repro.sweep3d.input import Sweep3DInput
from repro.sweep3d.quadrature import OctantAngles

if TYPE_CHECKING:
    import numpy as np

#: Floating point (and bookkeeping) operations per cell per angle in the
#: original kernel, as extracted by ``capp`` from the C source and verified
#: by profiling.  Keys are PACE clc mnemonics.
CELL_ANGLE_OPERATIONS: dict[str, float] = {
    "AFDG": 16.0,   # floating point add/subtract
    "MFDG": 19.0,   # floating point multiply
    "DFDG": 1.0,    # floating point divide
    "LDDG": 14.0,   # double loads surviving register reuse (profiled)
    "STDG": 7.0,    # double stores
    "INTG": 8.0,    # integer/address arithmetic
    "IFBR": 3.0,    # conditional branches (flux fixup tests)
    "LFOR": 0.25,   # amortised loop start-up
}

#: Per-cell operations of the per-iteration scattering-source update
#: (``source_update`` in the bundled C source; the ``source`` subtask object).
CELL_SOURCE_OPERATIONS: dict[str, float] = {
    "AFDG": 1.0, "MFDG": 1.0, "LDDG": 1.0, "STDG": 1.0, "INTG": 2.0, "IFBR": 1.0,
}

#: Per-cell operations of the per-iteration convergence test (``flux_error``
#: in the bundled C source; the ``flux_err`` subtask object).
CELL_FLUX_ERR_OPERATIONS: dict[str, float] = {
    "AFDG": 3.0, "DFDG": 1.0, "LDDG": 2.0, "STDG": 1.0, "INTG": 2.0, "IFBR": 2.0,
}

#: Per-cell operations of the particle-balance edit (the ``balance`` subtask).
CELL_BALANCE_OPERATIONS: dict[str, float] = {
    "AFDG": 1.0, "LDDG": 1.0, "INTG": 1.0, "IFBR": 1.0,
}

#: Number of double-precision arrays the sweep streams over per cell
#: (angular flux workspace, scalar flux + moments, source, cross sections).
WORKING_SET_ARRAYS = 6


@dataclass
class BlockResult:
    """Outgoing fluxes and tallies produced by one block sweep."""

    #: Outgoing angular flux on the downstream i face: shape (ny, nk, na).
    psi_out_i: np.ndarray
    #: Outgoing angular flux on the downstream j face: shape (nx, nk, na).
    psi_out_j: np.ndarray
    #: Outgoing angular flux on the downstream k face: shape (nx, ny, na).
    psi_out_k: np.ndarray
    #: Weighted outflow (leakage) through the block's downstream faces.
    leakage: float = 0.0
    #: Number of negative-flux fixups applied.
    fixups: int = 0


@dataclass
class SweepKernel:
    """Serial kernel bound to one problem definition."""

    deck: Sweep3DInput
    #: Count of cells processed by :meth:`sweep_block` (diagnostics).
    cells_swept: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    # Characterisation (clc) view
    # ------------------------------------------------------------------

    @classmethod
    def cell_mix(cls) -> OperationMix:
        """Operation mix of a single cell/angle update of the original kernel."""
        return OperationMix.from_mnemonics(CELL_ANGLE_OPERATIONS)

    @classmethod
    def flops_per_cell_angle(cls) -> float:
        """Floating point operations per cell per angle (the paper's grind size)."""
        return cls.cell_mix().flops

    @staticmethod
    def working_set_bytes(nx: int, ny: int, nz: int) -> float:
        """Bytes streamed per full sweep of an ``nx x ny x nz`` sub-domain."""
        return float(WORKING_SET_ARRAYS * nx * ny * nz * units.DOUBLE_BYTES)

    @classmethod
    def block_mix(cls, nx: int, ny: int, nk: int, n_angles: int,
                  working_set_bytes: float | None = None) -> OperationMix:
        """Operation mix of one (k-block, angle-block) sweep over an i-j sub-domain."""
        cells = nx * ny * nk * n_angles
        if working_set_bytes is None:
            working_set_bytes = cls.working_set_bytes(nx, ny, nk)
        return cls.cell_mix().scaled(cells, working_set_bytes=working_set_bytes)

    @classmethod
    def source_mix(cls, cells: int, working_set_bytes: float = 0.0) -> OperationMix:
        """Operation mix of the per-iteration scattering-source update over ``cells``."""
        return OperationMix.from_mnemonics(CELL_SOURCE_OPERATIONS).scaled(
            cells, working_set_bytes=working_set_bytes)

    @classmethod
    def flux_err_mix(cls, cells: int, working_set_bytes: float = 0.0) -> OperationMix:
        """Operation mix of the per-iteration convergence test over ``cells``."""
        return OperationMix.from_mnemonics(CELL_FLUX_ERR_OPERATIONS).scaled(
            cells, working_set_bytes=working_set_bytes)

    @classmethod
    def balance_mix(cls, cells: int, working_set_bytes: float = 0.0) -> OperationMix:
        """Operation mix of the particle-balance edit over ``cells``."""
        return OperationMix.from_mnemonics(CELL_BALANCE_OPERATIONS).scaled(
            cells, working_set_bytes=working_set_bytes)

    def local_sweep_mix(self, nx: int, ny: int) -> OperationMix:
        """Operation mix of one full iteration's sweeps on one processor.

        Covers all 8 octants and every angle of the quadrature over the
        processor's ``nx x ny x kt`` sub-domain, with the working set of the
        full sub-domain (the quantity the PAPI-substitute profiler measures
        the achieved flop rate against).
        """
        total_angles = self.deck.quadrature().total_angles
        cells = nx * ny * self.deck.kt
        return self.cell_mix().scaled(
            cells * total_angles,
            working_set_bytes=self.working_set_bytes(nx, ny, self.deck.kt))

    # ------------------------------------------------------------------
    # Numeric view
    # ------------------------------------------------------------------

    def sweep_block(self,
                    octant: Octant,
                    angles: OctantAngles,
                    k_planes: np.ndarray,
                    q_block: np.ndarray,
                    psi_in_i: np.ndarray,
                    psi_in_j: np.ndarray,
                    psi_in_k: np.ndarray,
                    phi_accum: np.ndarray) -> BlockResult:
        """Sweep one block of cells for one octant and angle block.

        Parameters
        ----------
        octant:
            The sweep octant (defines traversal direction in i, j, k).
        angles:
            The ordinates of this angle block (positive cosines).
        k_planes:
            Global k indices of the planes in this block, in traversal
            order (ascending for ``kdir=+1``, descending for ``kdir=-1``).
        q_block:
            Isotropic total source for the local sub-domain, shape
            ``(nx, ny, kt)`` — indexed with the global-ordered k index.
        psi_in_i:
            Incoming angular flux on the upstream i face, shape
            ``(ny, nk, na)`` where ``nk = len(k_planes)``.
        psi_in_j:
            Incoming angular flux on the upstream j face, shape
            ``(nx, nk, na)``.
        psi_in_k:
            Incoming angular flux on the upstream k face (from the previous
            k block of this octant/angle block), shape ``(nx, ny, na)``.
        phi_accum:
            Scalar flux accumulator, shape ``(nx, ny, kt)``; updated in place.

        Returns
        -------
        BlockResult
            The outgoing face fluxes (to be sent downstream / carried to the
            next k block) and tallies.
        """
        import numpy as np

        deck = self.deck
        nx, ny, kt = q_block.shape
        nk = len(k_planes)
        na = angles.n_angles
        self._check_shapes(psi_in_i, psi_in_j, psi_in_k, nx, ny, nk, na)

        eps_i = 2.0 * angles.mu / deck.dx          # (na,)
        eps_j = 2.0 * angles.eta / deck.dy
        eps_k = 2.0 * angles.xi / deck.dz
        denom = deck.sigma_t + eps_i + eps_j + eps_k
        inv_denom = 1.0 / denom
        weights = angles.weight

        i_range = range(nx) if octant.idir > 0 else range(nx - 1, -1, -1)
        j_range = range(ny) if octant.jdir > 0 else range(ny - 1, -1, -1)

        psi_out_i = np.array(psi_in_i, dtype=float, copy=True)
        psi_out_j = np.array(psi_in_j, dtype=float, copy=True)
        psi_k_face = np.array(psi_in_k, dtype=float, copy=True)   # (nx, ny, na)

        fixups = 0
        leakage = 0.0

        for i in i_range:
            for j in j_range:
                pin_k = psi_k_face[i, j, :]                       # (na,)
                for kk, k_global in enumerate(k_planes):
                    pin_i = psi_out_i[j, kk, :]
                    pin_j = psi_out_j[i, kk, :]
                    numer = (q_block[i, j, k_global]
                             + eps_i * pin_i + eps_j * pin_j + eps_k * pin_k)
                    psi = numer * inv_denom
                    out_i = 2.0 * psi - pin_i
                    out_j = 2.0 * psi - pin_j
                    out_k = 2.0 * psi - pin_k
                    if deck.flux_fixup:
                        negative = (out_i < 0.0) | (out_j < 0.0) | (out_k < 0.0)
                        count = int(np.count_nonzero(negative))
                        if count:
                            fixups += count
                            out_i = np.maximum(out_i, 0.0)
                            out_j = np.maximum(out_j, 0.0)
                            out_k = np.maximum(out_k, 0.0)
                    phi_accum[i, j, k_global] += float(np.dot(weights, psi))
                    psi_out_i[j, kk, :] = out_i
                    psi_out_j[i, kk, :] = out_j
                    pin_k = out_k
                psi_k_face[i, j, :] = pin_k
        self.cells_swept += nx * ny * nk

        # Leakage through the downstream faces of this block (weighted by the
        # projected area of each face per ordinate).
        face_i = psi_out_i * (angles.mu * weights)        # (ny, nk, na)
        face_j = psi_out_j * (angles.eta * weights)
        face_k = psi_k_face * (angles.xi * weights)
        leakage += float(face_i.sum()) * deck.dy * deck.dz
        leakage += float(face_j.sum()) * deck.dx * deck.dz
        leakage += float(face_k.sum()) * deck.dx * deck.dy

        return BlockResult(psi_out_i=psi_out_i, psi_out_j=psi_out_j,
                           psi_out_k=psi_k_face, leakage=leakage, fixups=fixups)

    @staticmethod
    def _check_shapes(psi_in_i: np.ndarray, psi_in_j: np.ndarray,
                      psi_in_k: np.ndarray, nx: int, ny: int, nk: int, na: int) -> None:
        if psi_in_i.shape != (ny, nk, na):
            raise Sweep3DError(
                f"psi_in_i has shape {psi_in_i.shape}, expected {(ny, nk, na)}")
        if psi_in_j.shape != (nx, nk, na):
            raise Sweep3DError(
                f"psi_in_j has shape {psi_in_j.shape}, expected {(nx, nk, na)}")
        if psi_in_k.shape != (nx, ny, na):
            raise Sweep3DError(
                f"psi_in_k has shape {psi_in_k.shape}, expected {(nx, ny, na)}")

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def k_blocks(self) -> list[np.ndarray]:
        """Global k-plane indices of each k block, in ascending-k order."""
        import numpy as np

        kt, mk = self.deck.kt, self.deck.mk
        return [np.arange(start, min(start + mk, kt)) for start in range(0, kt, mk)]

    def k_blocks_for_octant(self, octant: Octant) -> list[np.ndarray]:
        """k blocks in the traversal order of ``octant`` (planes ordered too)."""
        blocks = self.k_blocks()
        if octant.kdir > 0:
            return blocks
        return [block[::-1] for block in reversed(blocks)]
