"""Processor presets for the machines used in the paper.

The numeric parameters (cache sizes, opcode latencies, issue widths) follow
the published micro-architecture of each processor; the efficiency-style
parameters (``ilp_efficiency``, ``streaming_factor``) are calibrated so that
the *achieved* floating point rate of the SWEEP3D serial kernel measured by
the PAPI-substitute profiler lands close to the rates reported in the paper:

=========================  ======================  =====================
Machine                    Paper achieved rate      Problem size / PE
=========================  ======================  =====================
Pentium-3 1.4 GHz          110 MFLOPS               50 x 50 x 50
AMD Opteron 2.0 GHz        350 MFLOPS               50 x 50 x 50
Intel Itanium-2 1.6 GHz    225 MFLOPS               50 x 50 x 50
Hypothetical Opteron node  340 MFLOPS               5x5x100 / 25x25x200
=========================  ======================  =====================
"""

from __future__ import annotations

from repro.simproc.cache import CacheLevel, MemoryHierarchy
from repro.simproc.compiler import CompilerModel
from repro.simproc.opcodes import OpCategory, OpcodeCostTable
from repro.simproc.processor import ProcessorModel, SuperscalarModel

_KIB = 1024
_MIB = 1024 * 1024


def pentium3_1400() -> ProcessorModel:
    """Intel Pentium III 1.4 GHz (Tualatin-class), GNU C 2.96 ``-O1``, x87."""
    costs = OpcodeCostTable.from_pairs({
        OpCategory.FADD: (5.0, 1.0),
        OpCategory.FMUL: (7.0, 2.0),
        OpCategory.FDIV: (40.0, 37.0),
        OpCategory.LOAD: (5.0, 1.0),
        OpCategory.STORE: (4.0, 1.0),
        OpCategory.INT: (1.0, 0.5),
        OpCategory.BRANCH: (3.0, 1.0),
        OpCategory.LOOP: (6.0, 2.0),
    })
    memory = MemoryHierarchy(
        levels=[
            CacheLevel("L1", 16 * _KIB, access_cycles=3.0, line_bytes=32),
            CacheLevel("L2", 512 * _KIB, access_cycles=9.0, line_bytes=32),
        ],
        memory_access_cycles=160.0,
        streaming_factor=0.45,
    )
    superscalar = SuperscalarModel(issue_width=3, fp_pipelines=1, ilp_efficiency=0.30)
    compiler = CompilerModel(name="gcc-2.96", optimization_level="O1", x87=True)
    return ProcessorModel("Intel Pentium III 1.4GHz", 1.4e9, costs, memory,
                          superscalar, compiler)


def opteron_2000() -> ProcessorModel:
    """AMD Opteron 2.0 GHz (x86-64), GNU C 3.4.4 ``-O1 -mfpmath=387``."""
    costs = OpcodeCostTable.from_pairs({
        OpCategory.FADD: (5.0, 1.0),
        OpCategory.FMUL: (5.0, 1.0),
        OpCategory.FDIV: (30.0, 17.0),
        OpCategory.LOAD: (4.0, 0.5),
        OpCategory.STORE: (4.0, 1.0),
        OpCategory.INT: (1.0, 0.33),
        OpCategory.BRANCH: (2.0, 0.5),
        OpCategory.LOOP: (4.0, 1.0),
    })
    memory = MemoryHierarchy(
        levels=[
            CacheLevel("L1", 64 * _KIB, access_cycles=3.0, line_bytes=64),
            CacheLevel("L2", 1 * _MIB, access_cycles=12.0, line_bytes=64),
        ],
        memory_access_cycles=190.0,
        streaming_factor=0.30,
    )
    superscalar = SuperscalarModel(issue_width=3, fp_pipelines=2, ilp_efficiency=0.55)
    compiler = CompilerModel(name="gcc-3.4.4", optimization_level="O1", x87=True)
    return ProcessorModel("AMD Opteron 2.0GHz", 2.0e9, costs, memory,
                          superscalar, compiler)


def itanium2_1600() -> ProcessorModel:
    """Intel Itanium-2 1.6 GHz (IA-64), Intel C 8.1 ``-O1``.

    At ``-O1`` the compiler does not software-pipeline the sweep loops, so
    the wide in-order core runs far below peak — the paper measures only
    225 MFLOPS out of a 6.4 GFLOPS peak.
    """
    costs = OpcodeCostTable.from_pairs({
        OpCategory.FADD: (4.0, 1.0),
        OpCategory.FMUL: (4.0, 1.0),
        OpCategory.FDIV: (35.0, 30.0),
        OpCategory.LOAD: (6.0, 2.0),   # FP loads bypass L1 on Itanium-2
        OpCategory.STORE: (6.0, 2.0),
        OpCategory.INT: (1.0, 0.25),
        OpCategory.BRANCH: (2.0, 1.0),
        OpCategory.LOOP: (3.0, 2.0),
    })
    memory = MemoryHierarchy(
        levels=[
            CacheLevel("L2", 256 * _KIB, access_cycles=6.0, line_bytes=128),
            CacheLevel("L3", 3 * _MIB, access_cycles=14.0, line_bytes=128),
        ],
        memory_access_cycles=210.0,
        streaming_factor=0.55,
    )
    superscalar = SuperscalarModel(issue_width=6, fp_pipelines=4, ilp_efficiency=0.0)
    compiler = CompilerModel(name="icc-8.1", optimization_level="O1", x87=True)
    return ProcessorModel("Intel Itanium-2 1.6GHz", 1.6e9, costs, memory,
                          superscalar, compiler)
