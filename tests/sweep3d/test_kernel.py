"""Tests for the sweep kernel: characterisation and numeric block sweeps."""

import numpy as np
import pytest

from repro.errors import Sweep3DError
from repro.sweep3d.geometry import octant_order
from repro.sweep3d.input import Sweep3DInput
from repro.sweep3d.kernel import SweepKernel


@pytest.fixture
def deck() -> Sweep3DInput:
    return Sweep3DInput(it=4, jt=4, kt=4, mk=2, mmi=3, sn=6, max_iterations=4)


@pytest.fixture
def kernel(deck) -> SweepKernel:
    return SweepKernel(deck)


class TestCharacterisation:
    def test_flops_per_cell_angle(self):
        assert SweepKernel.flops_per_cell_angle() == 36.0

    def test_cell_mix_composition(self):
        mix = SweepKernel.cell_mix()
        mnemonics = {category.value: count for category, count in mix.counts.items()}
        assert mnemonics["AFDG"] == 16
        assert mnemonics["MFDG"] == 19
        assert mnemonics["DFDG"] == 1

    def test_block_mix_scales_with_cells(self):
        small = SweepKernel.block_mix(5, 5, 10, 3)
        large = SweepKernel.block_mix(10, 10, 10, 3)
        assert large.flops == pytest.approx(4 * small.flops)

    def test_local_sweep_mix_counts_all_angles(self, kernel, deck):
        mix = kernel.local_sweep_mix(deck.it, deck.jt)
        expected = (SweepKernel.flops_per_cell_angle() * deck.total_cells
                    * deck.quadrature().total_angles)
        assert mix.flops == pytest.approx(expected)

    def test_working_set_estimate(self):
        assert SweepKernel.working_set_bytes(50, 50, 50) == pytest.approx(
            6 * 50 ** 3 * 8)

    def test_auxiliary_mixes(self):
        assert SweepKernel.source_mix(1000).flops == pytest.approx(2000)
        assert SweepKernel.flux_err_mix(1000).flops == pytest.approx(4000)
        assert SweepKernel.balance_mix(1000).flops == pytest.approx(1000)


class TestKBlocks:
    def test_blocks_cover_all_planes(self, kernel, deck):
        blocks = kernel.k_blocks()
        planes = np.concatenate(blocks)
        np.testing.assert_array_equal(np.sort(planes), np.arange(deck.kt))

    def test_descending_octant_reverses_order(self, kernel):
        descending = next(o for o in octant_order() if o.kdir < 0)
        blocks = kernel.k_blocks_for_octant(descending)
        planes = np.concatenate(blocks)
        assert planes[0] == kernel.deck.kt - 1
        assert planes[-1] == 0

    def test_uneven_blocking(self):
        kernel = SweepKernel(Sweep3DInput(it=2, jt=2, kt=5, mk=2))
        sizes = [len(block) for block in kernel.k_blocks()]
        assert sizes == [2, 2, 1]


class TestNumericBlockSweep:
    def _sweep_single_cell(self, octant, q=1.0, sigma_t=1.0):
        deck = Sweep3DInput(it=1, jt=1, kt=1, mk=1, mmi=1, sn=2,
                            sigma_t=sigma_t, sigma_s=0.0, fixed_source=q,
                            flux_fixup=False)
        kernel = SweepKernel(deck)
        angles = deck.quadrature().angle_blocks(1)[0]
        phi = np.zeros((1, 1, 1))
        result = kernel.sweep_block(
            octant, angles, np.array([0]),
            q_block=np.full((1, 1, 1), q),
            psi_in_i=np.zeros((1, 1, 1)),
            psi_in_j=np.zeros((1, 1, 1)),
            psi_in_k=np.zeros((1, 1, 1)),
            phi_accum=phi)
        return deck, angles, phi, result

    def test_single_cell_diamond_difference(self):
        """Hand-checked diamond-difference update for one cell and one angle."""
        octant = octant_order()[0]
        deck, angles, phi, result = self._sweep_single_cell(octant, q=2.0, sigma_t=1.5)
        mu, eta, xi = angles.mu[0], angles.eta[0], angles.xi[0]
        denom = deck.sigma_t + 2 * mu + 2 * eta + 2 * xi
        psi_expected = 2.0 / denom
        assert phi[0, 0, 0] == pytest.approx(angles.weight[0] * psi_expected)
        np.testing.assert_allclose(result.psi_out_i, 2 * psi_expected, rtol=1e-12)
        np.testing.assert_allclose(result.psi_out_k, 2 * psi_expected, rtol=1e-12)

    def test_vacuum_inflow_no_source_gives_zero_flux(self):
        octant = octant_order()[0]
        _, _, phi, result = self._sweep_single_cell(octant, q=0.0)
        assert phi[0, 0, 0] == 0.0
        assert result.fixups == 0

    def test_shape_validation(self, kernel, deck):
        octant = octant_order()[0]
        angles = deck.quadrature().angle_blocks(deck.mmi)[0]
        k_planes = kernel.k_blocks()[0]
        with pytest.raises(Sweep3DError):
            kernel.sweep_block(octant, angles, k_planes,
                               q_block=np.zeros((deck.it, deck.jt, deck.kt)),
                               psi_in_i=np.zeros((1, 1, 1)),
                               psi_in_j=np.zeros((deck.it, len(k_planes), angles.n_angles)),
                               psi_in_k=np.zeros((deck.it, deck.jt, angles.n_angles)),
                               phi_accum=np.zeros((deck.it, deck.jt, deck.kt)))

    def test_fixup_prevents_negative_outflow(self):
        """A strongly absorbing cell with a large incoming flux triggers the fixup."""
        deck = Sweep3DInput(it=1, jt=1, kt=1, mk=1, mmi=1, sn=2,
                            sigma_t=50.0, sigma_s=0.0, fixed_source=0.0,
                            flux_fixup=True)
        kernel = SweepKernel(deck)
        octant = octant_order()[0]
        angles = deck.quadrature().angle_blocks(1)[0]
        phi = np.zeros((1, 1, 1))
        result = kernel.sweep_block(
            octant, angles, np.array([0]),
            q_block=np.zeros((1, 1, 1)),
            psi_in_i=np.full((1, 1, 1), 10.0),
            psi_in_j=np.zeros((1, 1, 1)),
            psi_in_k=np.zeros((1, 1, 1)),
            phi_accum=phi)
        assert result.fixups > 0
        assert (result.psi_out_i >= 0).all()
        assert (result.psi_out_j >= 0).all()
        assert (result.psi_out_k >= 0).all()

    def test_cells_swept_counter(self, kernel, deck):
        octant = octant_order()[0]
        angles = deck.quadrature().angle_blocks(deck.mmi)[0]
        k_planes = kernel.k_blocks()[0]
        na = angles.n_angles
        nk = len(k_planes)
        kernel.sweep_block(octant, angles, k_planes,
                           q_block=np.ones((deck.it, deck.jt, deck.kt)),
                           psi_in_i=np.zeros((deck.jt, nk, na)),
                           psi_in_j=np.zeros((deck.it, nk, na)),
                           psi_in_k=np.zeros((deck.it, deck.jt, na)),
                           phi_accum=np.zeros((deck.it, deck.jt, deck.kt)))
        assert kernel.cells_swept == deck.it * deck.jt * nk
