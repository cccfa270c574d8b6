"""Tests for the level-symmetric quadrature sets."""

import numpy as np
import pytest

from repro.errors import InputDeckError
from repro.sweep3d.quadrature import LevelSymmetricQuadrature


def whole_octant(quad):
    """All of one octant's ordinates, as a single angle block."""
    return quad.angle_blocks(quad.angles_per_octant)[0]


class TestQuadratureSets:
    @pytest.mark.parametrize("sn,angles", [(2, 1), (4, 3), (6, 6), (8, 10)])
    def test_angles_per_octant(self, sn, angles):
        quad = LevelSymmetricQuadrature(sn)
        assert quad.angles_per_octant == angles
        assert quad.total_angles == 8 * angles
        # The LQ_N relation: n = N (N + 2) / 8.
        assert angles == sn * (sn + 2) // 8

    @pytest.mark.parametrize("sn", [2, 4, 6, 8])
    def test_weights_normalised(self, sn):
        octant = whole_octant(LevelSymmetricQuadrature(sn))
        assert 8.0 * octant.weight.sum() == pytest.approx(1.0, rel=1e-5)

    @pytest.mark.parametrize("sn", [2, 4, 6, 8])
    def test_second_moment_is_one_third(self, sn):
        # The level-symmetric sets integrate mu^2 exactly: sum(w mu^2) = 1/3.
        octant = whole_octant(LevelSymmetricQuadrature(sn))
        assert 8.0 * np.sum(octant.weight * octant.mu ** 2) == \
            pytest.approx(1.0 / 3.0, rel=1e-5)

    @pytest.mark.parametrize("sn", [2, 4, 6, 8])
    def test_directions_are_unit_vectors(self, sn):
        octant = whole_octant(LevelSymmetricQuadrature(sn))
        norms = octant.mu ** 2 + octant.eta ** 2 + octant.xi ** 2
        np.testing.assert_allclose(norms, 1.0, rtol=1e-5)

    @pytest.mark.parametrize("sn", [2, 4, 6, 8])
    def test_cosines_positive(self, sn):
        octant = whole_octant(LevelSymmetricQuadrature(sn))
        assert (octant.mu > 0).all() and (octant.eta > 0).all() and (octant.xi > 0).all()

    def test_unsupported_order(self):
        with pytest.raises(InputDeckError):
            LevelSymmetricQuadrature(12)


class TestAngleBlocking:
    def test_s6_with_mmi3_gives_two_blocks(self):
        quad = LevelSymmetricQuadrature(6)
        blocks = quad.angle_blocks(3)
        assert len(blocks) == 2
        assert all(block.n_angles == 3 for block in blocks)
        assert quad.n_angle_blocks(3) == 2

    def test_blocks_partition_all_angles(self):
        quad = LevelSymmetricQuadrature(8)
        blocks = quad.angle_blocks(4)
        assert sum(block.n_angles for block in blocks) == quad.angles_per_octant
        total_weight = sum(float(block.weight.sum()) for block in blocks)
        assert total_weight == pytest.approx(1.0 / 8.0, rel=1e-5)

    def test_uneven_blocking_last_block_smaller(self):
        quad = LevelSymmetricQuadrature(8)   # 10 angles per octant
        blocks = quad.angle_blocks(4)
        assert [b.n_angles for b in blocks] == [4, 4, 2]

    def test_mmi_larger_than_angle_count(self):
        quad = LevelSymmetricQuadrature(4)
        blocks = quad.angle_blocks(100)
        assert len(blocks) == 1
        assert blocks[0].n_angles == 3

    def test_invalid_mmi(self):
        with pytest.raises(InputDeckError):
            LevelSymmetricQuadrature(6).angle_blocks(0)
        with pytest.raises(InputDeckError):
            LevelSymmetricQuadrature(6).n_angle_blocks(0)

    def test_angle_block_slicing(self):
        octant = whole_octant(LevelSymmetricQuadrature(6))
        block = octant.angle_block(2, 3)
        np.testing.assert_allclose(block.mu, octant.mu[2:5])
        assert block.n_angles == 3
