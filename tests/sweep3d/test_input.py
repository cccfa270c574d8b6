"""Tests for SWEEP3D input decks."""

import pytest

from repro.errors import InputDeckError
from repro.sweep3d.input import (
    Sweep3DInput,
    standard_deck,
)


class TestSweep3DInput:
    def test_defaults_match_paper_validation_setup(self):
        deck = Sweep3DInput()
        assert (deck.it, deck.jt, deck.kt) == (50, 50, 50)
        assert deck.mk == 10
        assert deck.mmi == 3
        assert deck.max_iterations == 12
        assert deck.sn == 6

    def test_derived_block_counts(self):
        deck = Sweep3DInput(kt=50, mk=10, mmi=3, sn=6)
        assert deck.n_k_blocks == 5
        assert deck.n_angle_blocks == 2
        assert deck.blocks_per_iteration == 8 * 5 * 2
        assert deck.angles_per_octant == 6

    def test_uneven_k_blocking_rounds_up(self):
        deck = Sweep3DInput(kt=55, mk=10)
        assert deck.n_k_blocks == 6

    def test_cells_per_processor(self):
        deck = Sweep3DInput(it=100, jt=100, kt=50)
        assert deck.cells_per_processor(2, 2) == 50 * 50 * 50

    def test_validation_errors(self):
        with pytest.raises(InputDeckError):
            Sweep3DInput(it=0)
        with pytest.raises(InputDeckError):
            Sweep3DInput(mk=0)
        with pytest.raises(InputDeckError):
            Sweep3DInput(epsi=0.0)
        with pytest.raises(InputDeckError):
            Sweep3DInput(sigma_s=2.0, sigma_t=1.0)   # non-convergent scattering ratio
        with pytest.raises(InputDeckError):
            Sweep3DInput(sn=5)

    def test_describe_mentions_parameters(self):
        text = Sweep3DInput(label="demo").describe()
        assert "demo" in text and "mk=10" in text


class TestStandardDecks:
    def test_validation_deck_weak_scaling(self):
        deck = standard_deck("validation", px=4, py=9)
        assert (deck.it, deck.jt, deck.kt) == (200, 450, 50)
        assert deck.mk == 10 and deck.max_iterations == 12

    def test_asci_decks_match_paper_cell_counts(self):
        # 8000 processors at 5x5x100 cells each = 20 million cells.
        deck20m = standard_deck("asci-20m", px=80, py=100)
        assert deck20m.total_cells == 20_000_000
        # 8000 processors at 25x25x200 cells each = 1 billion cells.
        deck1b = standard_deck("asci-1b", px=80, py=100)
        assert deck1b.total_cells == 1_000_000_000

    def test_mini_deck_is_small(self):
        deck = standard_deck("mini")
        assert deck.total_cells <= 1000

    def test_overrides(self):
        deck = standard_deck("validation", px=2, py=2, max_iterations=3)
        assert deck.max_iterations == 3

    def test_unknown_deck(self):
        with pytest.raises(InputDeckError):
            standard_deck("does-not-exist")

    @pytest.mark.parametrize("axis", ["px", "py"])
    def test_processor_array_below_one_is_named(self, axis):
        with pytest.raises(InputDeckError, match=rf"processor array {axis} must be >= 1"):
            standard_deck("validation", **{axis: 0})
