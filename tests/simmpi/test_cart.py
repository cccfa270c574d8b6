"""Tests for the 2-D Cartesian decomposition helper."""

import oracles
import pytest

from repro.errors import DecompositionError
from repro.simmpi.cart import Cart2D


class TestCoordinates:
    def test_roundtrip(self):
        cart = Cart2D(3, 4)
        for rank in range(cart.size):
            i, j = cart.coords(rank)
            assert cart.rank(i, j) == rank

    def test_row_major_layout(self):
        cart = Cart2D(2, 3)
        assert cart.coords(0) == (0, 0)
        assert cart.coords(1) == (0, 1)
        assert cart.coords(3) == (1, 0)

    def test_out_of_range(self):
        cart = Cart2D(2, 2)
        with pytest.raises(DecompositionError):
            cart.coords(4)
        with pytest.raises(DecompositionError):
            cart.rank(2, 0)

    def test_invalid_dimensions(self):
        with pytest.raises(DecompositionError):
            Cart2D(0, 3)


class TestNeighbours:
    def test_interior_neighbours(self):
        cart = Cart2D(3, 3)
        centre = cart.rank(1, 1)
        assert cart.east(centre) == cart.rank(2, 1)
        assert cart.west(centre) == cart.rank(0, 1)
        assert cart.north(centre) == cart.rank(1, 2)
        assert cart.south(centre) == cart.rank(1, 0)

    def test_boundary_has_no_neighbour(self):
        cart = Cart2D(3, 3)
        assert cart.west(cart.rank(0, 1)) is None
        assert cart.south(cart.rank(1, 0)) is None
        assert cart.east(cart.rank(2, 1)) is None
        assert cart.north(cart.rank(1, 2)) is None


class TestSweepSupport:
    def test_corner_ranks(self):
        """Each sweep direction starts from exactly one corner: the only
        rank with no upstream neighbour in either dimension."""
        cart = Cart2D(4, 5)
        corners = {(+1, +1): cart.rank(0, 0), (-1, +1): cart.rank(3, 0),
                   (+1, -1): cart.rank(0, 4), (-1, -1): cart.rank(3, 4)}
        for (idir, jdir), corner in corners.items():
            origins = [rank for rank in range(cart.size)
                       if cart.upstream(rank, idir, jdir) == (None, None)]
            assert origins == [corner]

    def test_upstream_downstream_are_opposite(self):
        cart = Cart2D(4, 4)
        rank = cart.rank(2, 1)
        up_i, up_j = cart.upstream(rank, +1, +1)
        dn_i, dn_j = cart.downstream(rank, +1, +1)
        assert up_i == cart.rank(1, 1)
        assert up_j == cart.rank(2, 0)
        assert dn_i == cart.rank(3, 1)
        assert dn_j == cart.rank(2, 2)

    def test_origin_corner_has_no_upstream(self):
        cart = Cart2D(3, 3)
        origin = cart.rank(0, 2)   # the corner a (+1, -1) sweep starts from
        up_i, up_j = cart.upstream(origin, +1, -1)
        assert up_i is None and up_j is None

    def test_sweep_depth(self):
        cart = Cart2D(4, 4)
        depths = oracles.sweep_depths(cart, +1, +1)
        assert depths[cart.rank(0, 0)] == 0
        assert depths[cart.rank(3, 3)] == 6
        assert depths[cart.rank(2, 1)] == 3

    def test_invalid_direction(self):
        cart = Cart2D(2, 2)
        with pytest.raises(DecompositionError):
            cart.upstream(0, 0, 1)


class TestFactorisation:
    @pytest.mark.parametrize("nranks,expected", [
        (1, (1, 1)), (4, (2, 2)), (6, (2, 3)), (12, (3, 4)), (16, (4, 4)),
        (30, (5, 6)), (112, (8, 14)), (8000, (80, 100)),
    ])
    def test_near_square_factorisation(self, nranks, expected):
        cart = Cart2D.for_size(nranks)
        assert (cart.px, cart.py) == expected
        assert cart.size == nranks

    def test_prime_count_falls_back_to_row(self):
        cart = Cart2D.for_size(13)
        assert cart.size == 13
        assert cart.px == 1 and cart.py == 13

    def test_invalid_size(self):
        with pytest.raises(DecompositionError):
            Cart2D.for_size(0)
