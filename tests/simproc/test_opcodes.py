"""Tests for operation mixes and opcode cost tables."""

import pytest

from repro.errors import ProcessorConfigError
from repro.simproc.opcodes import OpCategory, OpcodeCostTable, OperationMix


class TestOpCategory:
    def test_from_pace_mnemonic(self):
        assert OpCategory.from_mnemonic("MFDG") is OpCategory.FMUL
        assert OpCategory.from_mnemonic("AFDG") is OpCategory.FADD
        assert OpCategory.from_mnemonic("IFBR") is OpCategory.BRANCH

    def test_from_category_name(self):
        assert OpCategory.from_mnemonic("fmul") is OpCategory.FMUL

    def test_unknown_mnemonic(self):
        with pytest.raises(KeyError):
            OpCategory.from_mnemonic("XYZW")

    def test_floating_point_set(self):
        fp = OpCategory.floating_point()
        assert OpCategory.FADD in fp and OpCategory.FMUL in fp and OpCategory.FDIV in fp
        assert OpCategory.LOAD not in fp

    def test_memory_set(self):
        assert set(OpCategory.memory()) == {OpCategory.LOAD, OpCategory.STORE}


class TestOperationMix:
    def test_flop_count(self):
        mix = OperationMix({OpCategory.FADD: 3, OpCategory.FMUL: 4, OpCategory.LOAD: 7})
        assert mix.flops == 7
        assert mix.memory_accesses == 7
        assert mix.total_operations == 14

    def test_addition(self):
        a = OperationMix({OpCategory.FADD: 1}, working_set_bytes=100)
        b = OperationMix({OpCategory.FADD: 2, OpCategory.FDIV: 1}, working_set_bytes=300)
        c = a + b
        assert c.count(OpCategory.FADD) == 3
        assert c.count(OpCategory.FDIV) == 1
        assert c.working_set_bytes == 300  # max of the two

    def test_scaling(self):
        mix = OperationMix({OpCategory.FMUL: 2}) * 10
        assert mix.count(OpCategory.FMUL) == 20

    def test_scaled_with_working_set(self):
        mix = OperationMix({OpCategory.FMUL: 2}, working_set_bytes=64)
        scaled = mix.scaled(5, working_set_bytes=1024)
        assert scaled.count(OpCategory.FMUL) == 10
        assert scaled.working_set_bytes == 1024

    def test_negative_count_rejected(self):
        with pytest.raises(ProcessorConfigError):
            OperationMix({OpCategory.FADD: -1})

    def test_negative_scale_rejected(self):
        with pytest.raises(ProcessorConfigError):
            OperationMix({OpCategory.FADD: 1}) * -2

    def test_from_mnemonics_roundtrip(self):
        mix = OperationMix.from_mnemonics({"MFDG": 19, "AFDG": 16, "DFDG": 1})
        assert mix.flops == 36
        assert {category.value: count for category, count in mix.counts.items()} \
            == {"AFDG": 16, "MFDG": 19, "DFDG": 1}

    def test_is_empty(self):
        assert OperationMix().is_empty()
        assert not OperationMix({OpCategory.INT: 1}).is_empty()


class TestOpcodeCostTable:
    def _table(self):
        return OpcodeCostTable.from_pairs({
            category: (4.0, 1.0) for category in OpCategory
        })

    def test_latency_vs_throughput(self):
        table = self._table()
        mix = OperationMix({OpCategory.FADD: 10})
        assert table.latency_cycles(mix) == 40
        assert table.throughput_cycles(mix) == 10

    def test_missing_category_rejected(self):
        with pytest.raises(ProcessorConfigError):
            OpcodeCostTable(latency={OpCategory.FADD: 1.0}, throughput={OpCategory.FADD: 1.0})

    def test_latency_below_throughput_rejected(self):
        pairs = {category: (4.0, 1.0) for category in OpCategory}
        pairs[OpCategory.FMUL] = (0.5, 1.0)
        with pytest.raises(ProcessorConfigError):
            OpcodeCostTable.from_pairs(pairs)

    def test_nonpositive_throughput_rejected(self):
        pairs = {category: (4.0, 1.0) for category in OpCategory}
        pairs[OpCategory.INT] = (1.0, 0.0)
        with pytest.raises(ProcessorConfigError):
            OpcodeCostTable.from_pairs(pairs)
