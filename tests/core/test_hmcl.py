"""Tests for the HMCL hardware model and its textual format."""

import pytest

from repro import units
from repro.core.clc import ClcVector
from repro.core.hmcl.model import CpuCostModel, MpiCostModel
from repro.core.hmcl.parser import format_hmcl, parse_hmcl
from repro.errors import HmclLookupError, HmclSyntaxError
from repro.profiling.curvefit import PiecewiseLinearModel

EXAMPLE = """
hardware TestMachine {
    meta {
        description = "an example machine";
        processors_per_node = 4;
    }
    cpu achieved-rate {
        AFDG = 0.005;   # 0.005 us per flop = 200 MFLOPS
        MFDG = 0.005;
        DFDG = 0.005;
        IFBR = 0.0;
        LFOR = 0.0;
    }
    mpi {
        send     { A = 16384; B = 2.0; C = 0.001; D = 10.0; E = 0.004; }
        recv     { A = 16384; B = 3.0; C = 0.001; D = 12.0; E = 0.004; }
        pingpong { A = 16384; B = 20.0; C = 0.009; D = 60.0; E = 0.008; }
    }
}
"""


class TestCpuCostModel:
    def test_from_achieved_rate(self):
        cpu = CpuCostModel.from_achieved_rate(110e6)
        assert cpu.seconds_per_flop == pytest.approx(1.0 / 110e6)
        assert cpu.achieved_mflops == pytest.approx(110.0)
        # Bookkeeping operations cost nothing under the coarse approach.
        assert cpu.cost("IFBR") == 0.0
        assert cpu.cost("LFOR") == 0.0

    def test_evaluate_counts_only_flops_under_coarse_model(self):
        cpu = CpuCostModel.from_achieved_rate(100e6)
        clc = ClcVector({"AFDG": 50, "MFDG": 50, "IFBR": 1000, "LDDG": 1000})
        assert cpu.evaluate(clc) == pytest.approx(100 / 100e6)

    def test_from_opcode_benchmark_counts_everything(self, p3_processor):
        cpu = CpuCostModel.from_opcode_benchmark(p3_processor.opcode_benchmark())
        clc = ClcVector({"AFDG": 10, "IFBR": 10})
        assert cpu.evaluate(clc) > cpu.cost("AFDG") * 10

    def test_invalid_rate(self):
        with pytest.raises(HmclLookupError):
            CpuCostModel.from_achieved_rate(0.0)

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(HmclLookupError):
            CpuCostModel(op_costs={"ZZZZ": 1.0})

    def test_missing_flop_cost(self):
        cpu = CpuCostModel(op_costs={"IFBR": 1e-9})
        with pytest.raises(HmclLookupError):
            _ = cpu.achieved_mflops


class TestMpiCostModel:
    def _model(self):
        line = PiecewiseLinearModel(A=1024, B=10e-6, C=1e-9, D=20e-6, E=2e-9)
        return MpiCostModel(send=line, recv=line, pingpong=line)

    def test_delivery_is_half_pingpong(self):
        model = self._model()
        assert model.delivery_cost(512) == pytest.approx(model.pingpong.evaluate(512) / 2)

    def test_collective_cost_grows_logarithmically(self):
        model = self._model()
        assert model.collective_cost(1, 8) == 0.0
        two = model.collective_cost(2, 8)
        sixteen = model.collective_cost(16, 8)
        assert sixteen == pytest.approx(4 * two)

    def test_negative_evaluation_clamped(self):
        line = PiecewiseLinearModel(A=1024, B=-5e-6, C=0.0, D=-5e-6, E=0.0)
        model = MpiCostModel(send=line, recv=line, pingpong=line)
        assert model.send_cost(100) == 0.0


class TestHardwareModel:
    def test_compute_time(self, synthetic_hardware):
        clc = ClcVector({"MFDG": 200e6})
        assert synthetic_hardware.compute_time(clc) == pytest.approx(1.0)


class TestHmclFormat:
    def test_parse_example(self):
        hw = parse_hmcl(EXAMPLE)
        assert hw.name == "TestMachine"
        assert hw.processors_per_node == 4
        assert hw.description == "an example machine"
        assert hw.cpu.achieved_mflops == pytest.approx(200.0)
        assert hw.mpi.send.B == pytest.approx(2.0 * units.USEC)
        assert hw.mpi.pingpong.evaluate(100) == pytest.approx(
            20e-6 + 100 * 0.009e-6)

    def test_roundtrip(self):
        original = parse_hmcl(EXAMPLE)
        again = parse_hmcl(format_hmcl(original))
        assert again.name == original.name
        assert again.cpu.op_costs == pytest.approx(original.cpu.op_costs)
        assert again.mpi.send.as_dict() == pytest.approx(original.mpi.send.as_dict())
        assert again.processors_per_node == original.processors_per_node

    def test_missing_cpu_section(self):
        with pytest.raises(HmclSyntaxError):
            parse_hmcl("hardware X { mpi { send { A=1; B=1; C=1; D=1; E=1; } "
                       "recv { A=1; B=1; C=1; D=1; E=1; } "
                       "pingpong { A=1; B=1; C=1; D=1; E=1; } } }")

    def test_missing_mpi_group(self):
        with pytest.raises(HmclSyntaxError):
            parse_hmcl("hardware X { cpu { MFDG = 1.0; } "
                       "mpi { send { A=1; B=1; C=1; D=1; E=1; } } }")

    def test_unknown_section(self):
        with pytest.raises(HmclSyntaxError):
            parse_hmcl("hardware X { gpu { } }")

    def test_unknown_cpu_mnemonic(self):
        with pytest.raises(HmclSyntaxError):
            parse_hmcl("hardware X { cpu { QQQQ = 1.0; } }")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(HmclSyntaxError):
            parse_hmcl(EXAMPLE + "\nextra")

    @pytest.mark.parametrize("resource,expected_mflops", [
        ("pentium3_myrinet.hmcl", 110.0),
        ("opteron_gige.hmcl", 350.0),
        ("altix_itanium2.hmcl", 225.0),
        ("hypothetical_opteron_myrinet.hmcl", 340.0),
    ])
    def test_shipped_resources(self, resource, expected_mflops):
        from importlib import resources
        path = resources.files("repro.core") / "resources" / "hardware" / resource
        hw = parse_hmcl(path.read_text())
        assert hw.cpu.achieved_mflops == pytest.approx(expected_mflops, rel=0.10)
        assert hw.processors_per_node >= 2
