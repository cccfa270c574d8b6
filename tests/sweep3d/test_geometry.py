"""Tests for grids, decomposition and octant ordering."""

import pytest

from repro.errors import DecompositionError
from repro.simmpi.cart import Cart2D
from repro.sweep3d.geometry import (
    Decomposition,
    GlobalGrid,
    octant_order,
)


def local_grids(decomp):
    """Every rank's sub-grid, in rank order."""
    return [decomp.local_grid(rank) for rank in range(decomp.nranks)]


class TestGlobalGrid:
    def test_total_cells_and_volume(self):
        grid = GlobalGrid(10, 20, 30, dx=0.5, dy=1.0, dz=2.0)
        assert grid.total_cells == 6000

    def test_validation(self):
        with pytest.raises(DecompositionError):
            GlobalGrid(0, 1, 1)
        with pytest.raises(DecompositionError):
            GlobalGrid(1, 1, 1, dx=0.0)


class TestDecomposition:
    def test_even_split(self):
        decomp = Decomposition(GlobalGrid(100, 100, 50), Cart2D(2, 2))
        grids = local_grids(decomp)
        assert len(grids) == 4
        assert all(g.nx == 50 and g.ny == 50 and g.kt == 50 for g in grids)

    def test_offsets_tile_the_domain(self):
        decomp = Decomposition(GlobalGrid(10, 12, 3), Cart2D(2, 3))
        covered = set()
        for local in local_grids(decomp):
            for i in range(local.i0, local.i0 + local.nx):
                for j in range(local.j0, local.j0 + local.ny):
                    assert (i, j) not in covered
                    covered.add((i, j))
        assert len(covered) == 10 * 12

    def test_uneven_split_distributes_remainder(self):
        decomp = Decomposition(GlobalGrid(10, 9, 4), Cart2D(3, 2))
        nx_values = sorted({g.nx for g in local_grids(decomp)})
        ny_values = sorted({g.ny for g in local_grids(decomp)})
        assert nx_values == [3, 4]
        assert ny_values == [4, 5]

    def test_too_many_processors(self):
        decomp = Decomposition(GlobalGrid(2, 2, 2), Cart2D(4, 1))
        with pytest.raises(DecompositionError):
            decomp.validate()

    def test_empty_local_grid_rejected(self):
        decomp = Decomposition(GlobalGrid(3, 3, 3), Cart2D(1, 4))
        with pytest.raises(DecompositionError):
            local_grids(decomp)


class TestOctants:
    def test_eight_octants_all_distinct(self):
        octants = octant_order()
        assert len(octants) == 8
        signs = {(o.idir, o.jdir, o.kdir) for o in octants}
        assert len(signs) == 8

    def test_pairs_share_corner(self):
        octants = octant_order()
        for first, second in zip(octants[::2], octants[1::2]):
            assert first.corner == second.corner
            assert first.kdir != second.kdir

    def test_four_distinct_corners(self):
        # Octants come in pairs sharing a corner; the first of each pair.
        corners = [octant.corner for octant in octant_order()[::2]]
        assert len(set(corners)) == 4

    def test_indices_are_sequential(self):
        assert [o.index for o in octant_order()] == list(range(8))

    def test_invalid_direction_rejected(self):
        from repro.sweep3d.geometry import Octant
        with pytest.raises(DecompositionError):
            Octant(index=0, idir=0, jdir=1, kdir=1)
