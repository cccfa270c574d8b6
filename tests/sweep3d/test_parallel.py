"""Tests for the KBA parallel solver on the simulated cluster."""

import pytest

from repro.simnet.noise import NoiseModel
from repro.sweep3d.driver import run_serial_sweep
from repro.sweep3d.input import Sweep3DInput
from repro.sweep3d.verification import max_relative_difference, particle_balance


def run_sweep(machine, deck, px, py, numeric=False, noise=None):
    """One run of a freshly built plan on the reference engine."""
    return machine.simulation_plan(deck, px, py, numeric=numeric).run(noise)


@pytest.fixture(scope="module")
def numeric_deck() -> Sweep3DInput:
    return Sweep3DInput(it=8, jt=8, kt=6, mk=3, mmi=2, sn=4,
                        epsi=1e-6, max_iterations=10)


@pytest.fixture(scope="module")
def serial_reference(numeric_deck):
    return run_serial_sweep(numeric_deck)


class TestNumericEquivalence:
    @pytest.mark.parametrize("px,py", [(1, 1), (2, 2), (2, 4), (4, 2), (1, 4)])
    def test_parallel_matches_serial(self, numeric_deck, serial_reference,
                                     p3_machine, px, py):
        """The 2-D pipelined decomposition must not change the flux field."""
        run = run_sweep(p3_machine, numeric_deck, px, py, numeric=True)
        phi = run.global_flux()
        assert phi is not None
        assert max_relative_difference(phi, serial_reference.phi) < 1e-12

    def test_parallel_iteration_count_matches_serial(self, numeric_deck,
                                                     serial_reference, p3_machine):
        run = run_sweep(p3_machine, numeric_deck, 2, 2, numeric=True)
        assert run.iterations == serial_reference.iterations

    def test_parallel_balance(self, numeric_deck, p3_machine):
        run = run_sweep(p3_machine, numeric_deck, 2, 2, numeric=True)
        balance = particle_balance(numeric_deck, run.global_flux(),
                                   run.rank_summaries[0]["leakage_history"][-1])
        assert balance.relative_residual < 1e-2


class TestTimingBehaviour:
    def test_message_count_matches_structure(self, p3_machine):
        """Every interior stage exchanges exactly its EW/NS boundary messages."""
        deck = Sweep3DInput(it=4, jt=4, kt=4, mk=2, mmi=3, sn=6, max_iterations=2)
        px, py = 2, 2
        run = run_sweep(p3_machine, deck, px, py)
        blocks = deck.blocks_per_iteration * deck.max_iterations
        # For a 2x2 array each rank has exactly one downstream neighbour in
        # each direction for half the octants: in total each block stage
        # produces 1 EW + 1 NS message per interior boundary crossing.
        expected_point_to_point = blocks * (px * (py - 1) + py * (px - 1))
        assert run.total_messages == expected_point_to_point

    def test_weak_scaling_time_grows_with_processor_count(self, p3_machine):
        """More pipeline stages -> longer run time (the paper's linear increase)."""
        times = []
        for px, py in [(1, 1), (2, 2), (2, 4)]:
            deck = Sweep3DInput(it=10 * px, jt=10 * py, kt=10, mk=5, mmi=3,
                                sn=6, max_iterations=2)
            run = run_sweep(p3_machine, deck, px, py)
            times.append(run.elapsed_time)
        assert times[0] < times[1] < times[2]

    def test_modelled_run_is_deterministic_without_noise(self, p3_machine):
        deck = Sweep3DInput(it=10, jt=10, kt=10, mk=5, mmi=3, sn=6, max_iterations=2)
        first = run_sweep(p3_machine, deck, 2, 2)
        second = run_sweep(p3_machine, deck, 2, 2)
        assert first.elapsed_time == second.elapsed_time

    def test_noise_changes_but_barely_perturbs_time(self, p3_machine):
        deck = Sweep3DInput(it=10, jt=10, kt=10, mk=5, mmi=3, sn=6, max_iterations=2)
        clean = run_sweep(p3_machine, deck, 2, 2)
        noisy = run_sweep(p3_machine, deck, 2, 2, noise=NoiseModel(seed=5))
        assert noisy.elapsed_time != clean.elapsed_time
        assert abs(noisy.elapsed_time - clean.elapsed_time) / clean.elapsed_time < 0.15

    def test_compute_fraction_reported(self, p3_machine):
        deck = Sweep3DInput(it=10, jt=10, kt=10, mk=5, mmi=3, sn=6, max_iterations=2)
        run = run_sweep(p3_machine, deck, 2, 2)
        assert 0.0 < run.compute_fraction() <= 1.0

    def test_mismatched_communicator_size_rejected(self, p3_machine):
        from repro.simmpi.engine import ClusterEngine
        from repro.sweep3d.parallel import (
            SweepCostTable,
            SweepPlanData,
            make_decomposition,
            sweep_rank_program,
        )
        deck = Sweep3DInput(it=4, jt=4, kt=4, mk=2, max_iterations=1)
        decomp = make_decomposition(deck, 2, 2)
        engine = ClusterEngine(p3_machine.topology)
        from repro.errors import RankFailureError
        with pytest.raises(RankFailureError):
            engine.run(sweep_rank_program, nranks=2,
                       program_args=(deck, decomp, False,
                                     SweepCostTable(p3_machine.processor),
                                     SweepPlanData.for_deck(deck)))
