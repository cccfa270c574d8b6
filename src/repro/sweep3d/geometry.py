"""Grids, octants and the 2-D (KBA) domain decomposition of SWEEP3D.

The global spatial grid has ``it x jt x kt`` cells.  It is decomposed over a
``Px x Py`` logical processor array in the i and j directions only (Figure 1
of the paper); every processor holds the full k extent.  Sweeps originate
from the eight corners of the spatial domain — one octant of angles per
corner — and are processed in a fixed order that pipelines pairs of octants
that share a corner of the 2-D processor array.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DecompositionError
from repro.simmpi.cart import Cart2D


@dataclass(frozen=True)
class GlobalGrid:
    """The global spatial grid and cell sizes."""

    it: int
    jt: int
    kt: int
    dx: float = 1.0
    dy: float = 1.0
    dz: float = 1.0

    def __post_init__(self) -> None:
        if min(self.it, self.jt, self.kt) < 1:
            raise DecompositionError("grid dimensions must all be >= 1")
        if min(self.dx, self.dy, self.dz) <= 0:
            raise DecompositionError("cell sizes must all be positive")

    @property
    def total_cells(self) -> int:
        """Number of cells in the global grid."""
        return self.it * self.jt * self.kt


@dataclass(frozen=True)
class LocalGrid:
    """The sub-grid owned by one processor."""

    rank: int
    i0: int
    j0: int
    nx: int
    ny: int
    kt: int

    @property
    def cells(self) -> int:
        """Number of cells owned by this processor."""
        return self.nx * self.ny * self.kt

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1 or self.kt < 1:
            raise DecompositionError(
                f"rank {self.rank}: empty local grid {self.nx}x{self.ny}x{self.kt}; "
                "use fewer processors or a larger problem")


def _block_split(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``total`` cells into ``parts`` contiguous blocks (offset, count)."""
    if parts < 1:
        raise DecompositionError("number of parts must be >= 1")
    if parts > total:
        raise DecompositionError(
            f"cannot split {total} cells over {parts} processors")
    base, extra = divmod(total, parts)
    blocks = []
    offset = 0
    for p in range(parts):
        count = base + (1 if p < extra else 0)
        blocks.append((offset, count))
        offset += count
    return blocks


@dataclass(frozen=True)
class Decomposition:
    """Mapping of the global grid onto a ``Px x Py`` processor array."""

    grid: GlobalGrid
    cart: Cart2D

    @property
    def px(self) -> int:
        return self.cart.px

    @property
    def py(self) -> int:
        return self.cart.py

    @property
    def nranks(self) -> int:
        return self.cart.size

    def local_grid(self, rank: int) -> LocalGrid:
        """The sub-grid owned by ``rank``."""
        i_index, j_index = self.cart.coords(rank)
        i_blocks = _block_split(self.grid.it, self.px)
        j_blocks = _block_split(self.grid.jt, self.py)
        i0, nx = i_blocks[i_index]
        j0, ny = j_blocks[j_index]
        return LocalGrid(rank=rank, i0=i0, j0=j0, nx=nx, ny=ny, kt=self.grid.kt)

    def validate(self) -> None:
        """Raise :class:`DecompositionError` if the decomposition is infeasible."""
        if self.px > self.grid.it:
            raise DecompositionError(
                f"Px={self.px} exceeds the number of i cells ({self.grid.it})")
        if self.py > self.grid.jt:
            raise DecompositionError(
                f"Py={self.py} exceeds the number of j cells ({self.grid.jt})")


@dataclass(frozen=True)
class Octant:
    """One of the eight sweep octants.

    ``idir``/``jdir``/``kdir`` are the signs of the direction cosines of the
    octant's ordinates along i, j and k; the sweep travels *with* the
    particles, so an octant with ``idir=+1`` starts at the low-i face.
    """

    index: int
    idir: int
    jdir: int
    kdir: int

    def __post_init__(self) -> None:
        if self.idir not in (-1, 1) or self.jdir not in (-1, 1) or self.kdir not in (-1, 1):
            raise DecompositionError("octant direction signs must be +1 or -1")

    @property
    def corner(self) -> tuple[int, int]:
        """Logical corner of the processor array where this octant's sweep starts.

        Returns (0 or 1, 0 or 1): 0 means the low end of that dimension.
        """
        return (0 if self.idir > 0 else 1, 0 if self.jdir > 0 else 1)


def octant_order() -> list[Octant]:
    """The eight octants in SWEEP3D processing order.

    The sweeps are organised as four *octant pairs*; the two octants of a
    pair share the same (i, j) corner of the processor array and differ only
    in the k direction, so the second octant of a pair follows the first
    through the pipeline with no additional fill delay.  The corner order
    follows the original code's ``jkq`` loop: both j-negative corners first,
    then both j-positive corners, alternating the i direction.
    """
    directions = [
        (-1, -1), (+1, -1),   # j-negative corners
        (-1, +1), (+1, +1),   # j-positive corners
    ]
    octants = []
    index = 0
    for idir, jdir in directions:
        for kdir in (-1, +1):
            octants.append(Octant(index=index, idir=idir, jdir=jdir, kdir=kdir))
            index += 1
    return octants
