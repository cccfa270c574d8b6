"""Tests for the serial reference solver and the physics invariants."""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.sweep3d.input import Sweep3DInput
from repro.sweep3d.serial import SerialSweepSolver
from repro.sweep3d.verification import (
    BalanceReport,
    flux_is_nonnegative,
    infinite_medium_flux,
    interior_flux_ratio,
    max_relative_difference,
    particle_balance,
)


@pytest.fixture(scope="module")
def converged_result():
    """A small problem iterated to tight convergence (shared across tests)."""
    deck = Sweep3DInput(it=6, jt=6, kt=6, mk=3, mmi=2, sn=4,
                        epsi=1e-7, max_iterations=30,
                        sigma_t=1.0, sigma_s=0.5, fixed_source=1.0)
    return deck, SerialSweepSolver(deck).solve()


class TestSourceIteration:
    def test_converges(self, converged_result):
        _, result = converged_result
        assert result.converged
        assert result.error_history[-1] <= 1e-7

    def test_error_history_decreases(self, converged_result):
        _, result = converged_result
        errors = result.error_history[1:]
        assert all(b <= a * 1.01 for a, b in zip(errors, errors[1:]))

    def test_flux_nonnegative(self, converged_result):
        _, result = converged_result
        assert flux_is_nonnegative(result.phi)

    def test_particle_balance(self, converged_result):
        deck, result = converged_result
        balance = particle_balance(deck, result.phi, result.boundary_leakage)
        assert balance.relative_residual < 1e-3

    def test_interior_flux_below_infinite_medium(self, converged_result):
        deck, result = converged_result
        ratio = interior_flux_ratio(deck, result.phi, margin=1)
        assert 0.2 < ratio < 1.0   # vacuum boundaries leak, so below the infinite-medium value

    def test_flux_symmetry(self, converged_result):
        """A symmetric problem produces a symmetric flux field."""
        _, result = converged_result
        phi = result.phi
        np.testing.assert_allclose(phi, phi[::-1, :, :], rtol=1e-10)
        np.testing.assert_allclose(phi, phi[:, ::-1, :], rtol=1e-10)
        np.testing.assert_allclose(phi, phi[:, :, ::-1], rtol=1e-10)
        np.testing.assert_allclose(phi, np.transpose(phi, (1, 0, 2)), rtol=1e-10)

    def test_iteration_cap_respected(self):
        deck = Sweep3DInput(it=4, jt=4, kt=4, mk=2, mmi=3, sn=4,
                            epsi=1e-14, max_iterations=3)
        result = SerialSweepSolver(deck).solve()
        assert result.iterations == 3
        assert not result.converged

    def test_require_convergence_raises(self):
        deck = Sweep3DInput(it=4, jt=4, kt=4, mk=2, mmi=3, sn=4,
                            epsi=1e-14, max_iterations=2)
        with pytest.raises(ConvergenceError):
            SerialSweepSolver(deck).solve(require_convergence=True)

    def test_pure_absorber_single_iteration(self):
        """With no scattering the first iteration is already the solution."""
        deck = Sweep3DInput(it=5, jt=5, kt=5, mk=5, mmi=3, sn=4,
                            sigma_t=1.0, sigma_s=0.0, fixed_source=1.0,
                            epsi=1e-10, max_iterations=5)
        result = SerialSweepSolver(deck).solve()
        assert result.iterations <= 3

    def test_scattering_increases_flux(self):
        base = Sweep3DInput(it=5, jt=5, kt=5, mk=5, mmi=3, sn=4,
                            sigma_t=1.0, sigma_s=0.0, max_iterations=15, epsi=1e-8)
        scattering = Sweep3DInput(it=5, jt=5, kt=5, mk=5, mmi=3, sn=4,
                                  sigma_t=1.0, sigma_s=0.6, max_iterations=25, epsi=1e-8)
        flux_absorber = SerialSweepSolver(base).solve().mean_flux()
        flux_scatterer = SerialSweepSolver(scattering).solve().mean_flux()
        assert flux_scatterer > flux_absorber

    def test_blocking_factors_do_not_change_the_answer(self):
        """mk/mmi only affect pipelining, never the converged flux."""
        results = []
        for mk, mmi in [(1, 1), (2, 3), (6, 6)]:
            deck = Sweep3DInput(it=4, jt=4, kt=6, mk=mk, mmi=mmi, sn=4,
                                epsi=1e-9, max_iterations=25)
            results.append(SerialSweepSolver(deck).solve().phi)
        assert max_relative_difference(results[0], results[1]) < 1e-10
        assert max_relative_difference(results[0], results[2]) < 1e-10


class TestVerificationHelpers:
    def test_balance_report_residual(self):
        report = BalanceReport(production=10.0, absorption=6.0, leakage=4.0)
        assert report.residual == pytest.approx(0.0)
        assert report.relative_residual == pytest.approx(0.0)

    def test_balance_report_imbalance(self):
        report = BalanceReport(production=10.0, absorption=5.0, leakage=4.0)
        assert report.relative_residual == pytest.approx(0.1)

    def test_infinite_medium_flux(self):
        deck = Sweep3DInput(sigma_t=1.0, sigma_s=0.25, fixed_source=3.0)
        assert infinite_medium_flux(deck) == pytest.approx(4.0)

    def test_max_relative_difference(self):
        a = np.ones((2, 2, 2))
        b = np.ones((2, 2, 2)) * 1.1
        assert max_relative_difference(a, b) == pytest.approx(0.1 / 1.1, rel=1e-6)
        assert max_relative_difference(np.zeros(3), np.zeros(3)) == 0.0

    def test_flux_nonnegative_tolerance(self):
        phi = np.array([0.0, -1e-15, 2.0])
        assert flux_is_nonnegative(phi, tolerance=1e-12)
        assert not flux_is_nonnegative(np.array([-1.0]))
