"""SWEEP3D input decks.

The original benchmark reads a small fixed-format input file defining the
grid size, blocking factors, quadrature order and convergence control.
Here the same parameters live in a :class:`Sweep3DInput` dataclass, and
:func:`standard_deck` builds the configurations used in the paper:

* the weak-scaling validation runs — 50x50x50 cells *per processor*,
  ``mk = 10``, 12 iterations (Tables 1-3);
* the speculative ASCI-target problems — 20 million cells (5x5x100 per
  processor) and 1 billion cells (25x25x200 per processor), ``mk = 10``,
  ``mmi = 3`` (Figures 8-9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InputDeckError
from repro.sweep3d.geometry import GlobalGrid
from repro.sweep3d.quadrature import LevelSymmetricQuadrature


@dataclass(frozen=True)
class Sweep3DInput:
    """Complete problem definition for a SWEEP3D run.

    Parameters mirror the original code: ``it/jt/kt`` are the global cell
    counts, ``mk`` is the k-plane blocking factor, ``mmi`` the angle
    blocking factor, ``sn`` the quadrature order (S_N), ``epsi`` the
    convergence tolerance of the source iteration and ``max_iterations``
    the iteration cap (the paper's runs always execute 12 iterations).
    """

    it: int = 50
    jt: int = 50
    kt: int = 50
    mk: int = 10
    mmi: int = 3
    sn: int = 6
    epsi: float = 1e-6
    max_iterations: int = 12
    dx: float = 1.0
    dy: float = 1.0
    dz: float = 1.0
    #: Total macroscopic cross section (absorption + scattering), per cell unit.
    sigma_t: float = 1.0
    #: Scattering cross section (isotropic).
    sigma_s: float = 0.5
    #: Uniform fixed (external) source strength.
    fixed_source: float = 1.0
    #: Whether to apply the negative-flux fixup in the kernel.
    flux_fixup: bool = True
    #: Free-form label used in reports.
    label: str = field(default="", compare=False)

    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        if min(self.it, self.jt, self.kt) < 1:
            raise InputDeckError("grid dimensions it/jt/kt must be >= 1")
        if self.mk < 1:
            raise InputDeckError("mk (k-plane blocking factor) must be >= 1")
        if self.mmi < 1:
            raise InputDeckError("mmi (angle blocking factor) must be >= 1")
        if self.max_iterations < 1:
            raise InputDeckError("max_iterations must be >= 1")
        if self.epsi <= 0:
            raise InputDeckError("epsi must be positive")
        if self.sigma_t <= 0:
            raise InputDeckError("sigma_t must be positive")
        if self.sigma_s < 0:
            raise InputDeckError("sigma_s must be >= 0")
        if self.sigma_s >= self.sigma_t:
            raise InputDeckError(
                "sigma_s must be < sigma_t for a convergent source iteration")
        # Validate the quadrature order eagerly so bad decks fail fast.
        LevelSymmetricQuadrature(self.sn)

    # -- derived quantities ----------------------------------------------

    def grid(self) -> GlobalGrid:
        """The global spatial grid."""
        return GlobalGrid(self.it, self.jt, self.kt, self.dx, self.dy, self.dz)

    def quadrature(self) -> LevelSymmetricQuadrature:
        """The angular quadrature set."""
        return LevelSymmetricQuadrature(self.sn)

    @property
    def total_cells(self) -> int:
        """Number of cells in the global grid."""
        return self.it * self.jt * self.kt

    @property
    def angles_per_octant(self) -> int:
        return self.quadrature().angles_per_octant

    @property
    def n_k_blocks(self) -> int:
        """Number of k-plane blocks per octant sweep."""
        return -(-self.kt // self.mk)

    @property
    def n_angle_blocks(self) -> int:
        """Number of angle blocks per octant sweep."""
        return self.quadrature().n_angle_blocks(self.mmi)

    @property
    def blocks_per_iteration(self) -> int:
        """Pipeline stages of work per processor per iteration (8 octants)."""
        return 8 * self.n_k_blocks * self.n_angle_blocks

    def cells_per_processor(self, px: int, py: int) -> float:
        """Average cells per processor for a ``px x py`` decomposition."""
        return self.total_cells / float(px * py)

    def describe(self) -> str:
        label = f" [{self.label}]" if self.label else ""
        return (f"SWEEP3D{label}: {self.it}x{self.jt}x{self.kt} cells, S{self.sn}, "
                f"mk={self.mk}, mmi={self.mmi}, {self.max_iterations} iterations")


# ---------------------------------------------------------------------------
# Named decks
# ---------------------------------------------------------------------------


_STANDARD_DECKS = {
    # The validation configuration of Tables 1-3: 50^3 cells per processor.
    "validation": dict(mk=10, mmi=3, sn=6, max_iterations=12),
    # Section 6: the 20-million-cell ASCI problem, 5x5x100 cells/processor.
    "asci-20m": dict(kt=100, mk=10, mmi=3, sn=6, max_iterations=12),
    # Section 6: the 1-billion-cell ASCI problem, 25x25x200 cells/processor.
    "asci-1b": dict(kt=200, mk=10, mmi=3, sn=6, max_iterations=12),
    # A small deck usable for numeric runs in tests and examples.
    "mini": dict(it=8, jt=8, kt=8, mk=4, mmi=3, sn=6, max_iterations=4),
}

#: Per-processor sub-grid associated with each named deck (nx, ny, nz).
STANDARD_CELLS_PER_PROC = {
    "validation": (50, 50, 50),
    "asci-20m": (5, 5, 100),
    "asci-1b": (25, 25, 200),
    "mini": (4, 4, 8),
}


def standard_deck(name: str, px: int = 1, py: int = 1, **overrides) -> Sweep3DInput:
    """Instantiate one of the named decks for a ``px x py`` processor array.

    ``overrides`` are passed through to :class:`Sweep3DInput` (e.g.
    ``max_iterations=2`` to shorten a test run).
    """
    key = name.lower()
    if key not in _STANDARD_DECKS:
        raise InputDeckError(
            f"unknown standard deck {name!r}; available: {sorted(_STANDARD_DECKS)}")
    for axis, count in (("px", px), ("py", py)):
        if count < 1:
            raise InputDeckError(f"processor array {axis} must be >= 1 (got {count})")
    params = dict(_STANDARD_DECKS[key])
    params.update(overrides)
    nx, ny, nz = STANDARD_CELLS_PER_PROC[key]
    params.setdefault("label", key)
    params.setdefault("it", nx * px)
    params.setdefault("jt", ny * py)
    params.setdefault("kt", nz)
    return Sweep3DInput(**params)
