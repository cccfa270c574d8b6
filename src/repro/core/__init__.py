"""PACE — the layered performance characterisation framework of the paper.

This package is the paper's primary contribution re-implemented in Python:

* :mod:`repro.core.clc` — C-language characterisation (clc) operation
  tallies, the unit of serial-kernel description.
* :mod:`repro.core.capp` — the ``capp`` static source analyser: parses a C
  subset, extracts control flow and produces clc flow descriptions.
* :mod:`repro.core.psl` — the Performance Specification Language (a CHIP3S
  dialect): lexer, parser and AST for application, subtask and
  parallel-template objects.
* :mod:`repro.core.hmcl` — the Hardware Modelling and Configuration
  Language: processor clc costs and the piece-wise MPI cost model.
* :mod:`repro.core.templates` — the parallel template strategies
  (``pipeline``, ``globalsum``, ``globalmax``, ``async``).
* :mod:`repro.core.evaluation` — the compiler and executor that combine an
  application model with a hardware model to produce a prediction.
* :mod:`repro.core.workload` — helpers that bind SWEEP3D problem
  parameters to the shipped model objects.

The SWEEP3D model scripts of Figures 4-6 and the hardware objects of
Figure 7 live under ``repro/core/resources``.
"""

from repro.core.clc import ClcVector
from repro.core.hmcl.model import CpuCostModel, HardwareModel, MpiCostModel
from repro.core.hmcl.parser import parse_hmcl, format_hmcl
from repro.core.ir import ModelObject, ModelSet, ObjectKind
from repro.core.psl.parser import parse_psl
from repro.core.evaluation.result import PredictionResult
from repro.core.workload import SweepWorkload, load_sweep3d_model

__all__ = [
    "ClcVector",
    "CpuCostModel",
    "HardwareModel",
    "MpiCostModel",
    "parse_hmcl",
    "format_hmcl",
    "ModelObject",
    "ModelSet",
    "ObjectKind",
    "parse_psl",
    "PredictionResult",
    "SweepWorkload",
    "load_sweep3d_model",
]
