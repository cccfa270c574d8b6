"""Tests for clc operation vectors."""

import pytest

from repro.core.clc import ClcVector


class TestClcVector:
    def test_flops(self):
        clc = ClcVector({"AFDG": 16, "MFDG": 19, "DFDG": 1, "LDDG": 14})
        assert clc.flops == 36
        assert clc.total == 50

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(KeyError):
            ClcVector({"XXXX": 1})

    def test_case_insensitive_keys(self):
        assert ClcVector({"afdg": 2}).count("AFDG") == 2

    def test_addition_and_scaling(self):
        a = ClcVector({"AFDG": 1, "MFDG": 2})
        b = ClcVector({"MFDG": 3, "DFDG": 1})
        assert (a + b).as_dict() == {"AFDG": 1, "MFDG": 5, "DFDG": 1}
        assert (a * 3).count("MFDG") == 6
        assert (2 * a).count("AFDG") == 2

    def test_equality_tolerant(self):
        assert ClcVector({"AFDG": 1.0}) == ClcVector({"AFDG": 1.0 + 1e-15})
        assert ClcVector({"AFDG": 1.0}) != ClcVector({"AFDG": 2.0})
        assert ClcVector({}) == ClcVector({"AFDG": 0.0})

    def test_is_empty(self):
        assert ClcVector().is_empty()
        assert not ClcVector({"LFOR": 0.5}).is_empty()

    def test_as_dict_canonical_order(self):
        clc = ClcVector({"LFOR": 1, "AFDG": 2, "DFDG": 3})
        assert list(clc.as_dict()) == ["AFDG", "DFDG", "LFOR"]

    def test_describe(self):
        assert "AFDG:2" in ClcVector({"AFDG": 2}).describe()
