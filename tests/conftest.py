"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.evaluation.compiler import CompiledExecutor, CompiledModel
from repro.core.hmcl.model import CpuCostModel, HardwareModel, MpiCostModel
from repro.core.workload import load_sweep3d_model
from repro.machines.presets import get_machine
from repro.profiling.curvefit import PiecewiseLinearModel
from repro.simnet.presets import pentium3_cluster_topology
from repro.simproc.presets import opteron_2000, pentium3_1400
from repro.sweep3d.input import Sweep3DInput, standard_deck


@pytest.fixture(scope="session")
def sweep3d_model():
    """The shipped PSL model, parsed once per session."""
    return load_sweep3d_model()


@pytest.fixture(scope="session")
def p3_processor():
    return pentium3_1400()


@pytest.fixture(scope="session")
def opteron_processor():
    return opteron_2000()


@pytest.fixture(scope="session")
def p3_topology():
    return pentium3_cluster_topology()


@pytest.fixture(scope="session")
def p3_machine():
    return get_machine("pentium3-myrinet")


@pytest.fixture(scope="session")
def opteron_machine():
    return get_machine("opteron-gige")


def make_synthetic_mpi_model(latency: float = 10e-6,
                             per_byte: float = 4e-9) -> MpiCostModel:
    """A hand-built MPI cost model with known, simple parameters."""
    def line(intercept: float, slope: float) -> PiecewiseLinearModel:
        return PiecewiseLinearModel(A=16384.0, B=intercept, C=slope,
                                    D=intercept * 2, E=slope)
    return MpiCostModel(
        send=line(2e-6, 0.3e-9),
        recv=line(3e-6, 0.5e-9),
        pingpong=line(2 * latency, 2 * per_byte),
    )


@pytest.fixture(scope="session")
def synthetic_hardware() -> HardwareModel:
    """A deterministic hardware model decoupled from the machine presets."""
    return HardwareModel(
        name="synthetic",
        cpu=CpuCostModel.from_achieved_rate(200e6),   # 200 MFLOPS
        mpi=make_synthetic_mpi_model(),
        processors_per_node=2,
        description="synthetic hardware for unit tests",
    )


@pytest.fixture(scope="session")
def synthetic_executor(sweep3d_model, synthetic_hardware) -> CompiledExecutor:
    """The shipped model compiled and bound to the synthetic hardware."""
    return CompiledModel(sweep3d_model).executor(synthetic_hardware)


@pytest.fixture(scope="session")
def validation_deck_2x2() -> Sweep3DInput:
    """The Table-row deck for a 2x2 array (50^3 cells per processor)."""
    return standard_deck("validation", px=2, py=2)


@pytest.fixture()
def mini_deck() -> Sweep3DInput:
    """A small deck suitable for numeric runs in tests."""
    return Sweep3DInput(it=6, jt=6, kt=6, mk=3, mmi=3, sn=4,
                        epsi=1e-6, max_iterations=8, label="test-mini")
