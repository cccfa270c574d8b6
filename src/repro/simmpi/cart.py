"""Two-dimensional Cartesian process decomposition helpers.

SWEEP3D maps its spatial grid onto a logical ``Px x Py`` processor array
(Figure 1 of the paper).  :class:`Cart2D` provides the rank/coordinate
mapping and neighbour lookup used by both the parallel application and the
PACE pipeline parallel template, guaranteeing that they agree on the
communication structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DecompositionError


@dataclass(frozen=True)
class Cart2D:
    """A ``Px x Py`` logical processor array with row-major rank numbering.

    The *i* direction (first index, size ``px``) corresponds to the paper's
    east-west pipeline direction; the *j* direction (second index, size
    ``py``) to north-south.  Rank ``r`` maps to coordinates
    ``(r // py, r % py)`` so that ranks in the same row are contiguous.
    """

    px: int
    py: int

    def __post_init__(self) -> None:
        if self.px < 1 or self.py < 1:
            raise DecompositionError(
                f"processor array dimensions must be >= 1 (got {self.px}x{self.py})")

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of ranks in the array."""
        return self.px * self.py

    def coords(self, rank: int) -> tuple[int, int]:
        """The ``(i, j)`` coordinates of ``rank``."""
        if not 0 <= rank < self.size:
            raise DecompositionError(
                f"rank {rank} outside {self.px}x{self.py} processor array")
        return rank // self.py, rank % self.py

    def rank(self, i: int, j: int) -> int:
        """The rank at coordinates ``(i, j)``."""
        if not (0 <= i < self.px and 0 <= j < self.py):
            raise DecompositionError(
                f"coordinates ({i}, {j}) outside {self.px}x{self.py} processor array")
        return i * self.py + j

    def contains(self, i: int, j: int) -> bool:
        """Whether ``(i, j)`` lies inside the array."""
        return 0 <= i < self.px and 0 <= j < self.py

    # -- neighbours ----------------------------------------------------------

    def neighbour(self, rank: int, di: int, dj: int) -> int | None:
        """Rank offset by ``(di, dj)`` from ``rank``, or ``None`` at the boundary."""
        i, j = self.coords(rank)
        ni, nj = i + di, j + dj
        if not self.contains(ni, nj):
            return None
        return self.rank(ni, nj)

    def east(self, rank: int) -> int | None:
        """Neighbour in the +i direction."""
        return self.neighbour(rank, +1, 0)

    def west(self, rank: int) -> int | None:
        """Neighbour in the -i direction."""
        return self.neighbour(rank, -1, 0)

    def north(self, rank: int) -> int | None:
        """Neighbour in the +j direction."""
        return self.neighbour(rank, 0, +1)

    def south(self, rank: int) -> int | None:
        """Neighbour in the -j direction."""
        return self.neighbour(rank, 0, -1)

    # -- sweep support ---------------------------------------------------------

    def upstream(self, rank: int, idir: int, jdir: int) -> tuple[int | None, int | None]:
        """Upstream neighbours of ``rank`` for a sweep travelling (idir, jdir).

        ``idir``/``jdir`` are +1 or -1: the direction of particle travel.  A
        sweep travelling in +i receives its inflow from the -i neighbour.
        Returns ``(upstream_i, upstream_j)`` ranks (``None`` at the corner
        where the sweep originates).
        """
        self._check_direction(idir, jdir)
        return (self.neighbour(rank, -idir, 0), self.neighbour(rank, 0, -jdir))

    def downstream(self, rank: int, idir: int, jdir: int) -> tuple[int | None, int | None]:
        """Downstream neighbours of ``rank`` for a sweep travelling (idir, jdir)."""
        self._check_direction(idir, jdir)
        return (self.neighbour(rank, +idir, 0), self.neighbour(rank, 0, +jdir))

    @staticmethod
    def _check_direction(idir: int, jdir: int) -> None:
        if idir not in (-1, 1) or jdir not in (-1, 1):
            raise DecompositionError(
                f"sweep directions must be +1/-1 (got idir={idir}, jdir={jdir})")

    # -- factory ----------------------------------------------------------------

    @classmethod
    def for_size(cls, nranks: int) -> "Cart2D":
        """Choose a near-square ``Px x Py`` factorisation of ``nranks``.

        Mirrors the usual ``MPI_Dims_create`` behaviour: the factor pair
        with the smallest difference, with ``px <= py`` (the paper's tables
        also list the smaller dimension first).
        """
        if nranks < 1:
            raise DecompositionError("nranks must be >= 1")
        best = (1, nranks)
        for px in range(1, int(nranks ** 0.5) + 1):
            if nranks % px == 0:
                best = (px, nranks // px)
        return cls(*best)
