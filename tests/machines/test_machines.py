"""Tests for the machine presets and their measurement campaigns."""

import pytest

from repro.errors import MachineNotFoundError
from repro.machines.presets import MACHINE_PRESETS, get_machine
from repro.sweep3d.input import standard_deck


class TestRegistry:
    def test_five_machines_registered(self):
        assert set(MACHINE_PRESETS) == {
            "pentium3-myrinet", "opteron-gige", "altix-itanium2",
            "hypothetical-opteron-myrinet",
            "hypothetical-opteron-myrinet-1ns"}

    @pytest.mark.parametrize("alias,target", [
        ("pentium3", "pentium3-myrinet"),
        ("table2", "opteron-gige"),
        ("altix", "altix-itanium2"),
        ("speculative", "hypothetical-opteron-myrinet"),
        ("steady", "hypothetical-opteron-myrinet-1ns"),
        ("hypothetical-1ns", "hypothetical-opteron-myrinet-1ns"),
    ])
    def test_aliases(self, alias, target):
        assert get_machine(alias).name == target

    def test_unknown_machine(self):
        with pytest.raises(MachineNotFoundError):
            get_machine("bluegene")

    def test_descriptions_mention_hardware(self):
        assert "Myrinet" in get_machine("pentium3").description
        assert "Gigabit" in get_machine("opteron").description
        assert "Itanium" in get_machine("altix").description


class TestMachineCampaigns:
    def test_hardware_model_profiled_rates(self, p3_machine, opteron_machine):
        deck = standard_deck("validation", px=2, py=2)
        p3_hw = p3_machine.hardware_model(deck, 2, 2)
        opteron_hw = opteron_machine.hardware_model(deck, 2, 2)
        # Paper: 110 and 350 MFLOPS respectively.
        assert p3_hw.cpu.achieved_mflops == pytest.approx(110, rel=0.10)
        assert opteron_hw.cpu.achieved_mflops == pytest.approx(350, rel=0.10)

    def test_hypothetical_machine_uses_fixed_rate(self):
        machine = get_machine("hypothetical")
        deck = standard_deck("asci-20m", px=2, py=2)
        hw = machine.hardware_model(deck, 2, 2)
        assert hw.cpu.achieved_mflops == pytest.approx(340.0)

    def test_flop_rate_override(self, opteron_machine):
        deck = standard_deck("validation", px=2, py=2)
        hw = opteron_machine.hardware_model(deck, 2, 2, flop_rate_override=425e6)
        assert hw.cpu.achieved_mflops == pytest.approx(425.0)

    def test_legacy_cpu_section(self, opteron_machine):
        deck = standard_deck("validation", px=2, py=2)
        hw = opteron_machine.hardware_model(deck, 2, 2, legacy_cpu=True)
        assert hw.cpu.source == "opcode-benchmark"
        # The legacy section charges bookkeeping operations too.
        assert hw.cpu.cost("IFBR") > 0

    def test_mpi_model_cached(self, p3_machine):
        first = p3_machine.mpi_cost_model()
        second = p3_machine.mpi_cost_model()
        assert first is second

    def test_gige_slower_than_myrinet(self, p3_machine, opteron_machine):
        myrinet = p3_machine.mpi_cost_model()
        gige = opteron_machine.mpi_cost_model()
        assert gige.delivery_cost(12000) > myrinet.delivery_cost(12000)

    def test_noise_model_is_seeded(self, p3_machine):
        assert p3_machine.noise_model(0).seed == p3_machine.noise_seed
        assert p3_machine.noise_model(5).seed == p3_machine.noise_seed + 5

    def test_simulate_produces_measurement(self, opteron_machine):
        deck = standard_deck("validation", px=2, py=2, max_iterations=1)
        run = opteron_machine.simulate(deck, 2, 2)
        assert run.elapsed_time > 0
        assert run.total_messages > 0

    def test_simulation_reproducible_for_same_seed(self, opteron_machine):
        deck = standard_deck("validation", px=2, py=2, max_iterations=1)
        first = opteron_machine.simulate(deck, 2, 2, seed_offset=3)
        second = opteron_machine.simulate(deck, 2, 2, seed_offset=3)
        assert first.elapsed_time == second.elapsed_time

    def test_simulation_without_noise_is_clean(self, opteron_machine):
        deck = standard_deck("validation", px=2, py=2, max_iterations=1)
        clean = opteron_machine.simulate(deck, 2, 2, with_noise=False)
        noisy = opteron_machine.simulate(deck, 2, 2, with_noise=True)
        assert noisy.elapsed_time > clean.elapsed_time

    def test_describe(self, p3_machine):
        text = p3_machine.describe()
        assert "processor" in text and "network" in text
