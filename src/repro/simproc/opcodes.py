"""Opcode categories, operation mixes and per-opcode cost tables.

PACE's C-language characterisation (clc) expresses the work of a serial
kernel as a tally of *performance critical operations*.  The paper's model
keeps only floating point operations (mnemonics ``MFDG``/``AFDG``/``DFDG``)
and treats loop start-up (``LFOR``) and branch (``IFBR``) costs as
negligible.  This module keeps the full vocabulary so that both the
fine-grained legacy approach and the coarse flop-rate approach can be
expressed with the same data structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from repro.errors import ProcessorConfigError


class OpCategory(str, Enum):
    """Operation categories recognised by the processor cost model.

    The names mirror the PACE clc mnemonics where one exists (see Figure 5
    and Figure 7 of the paper); the remaining categories cover the memory
    and integer operations a real kernel also executes.
    """

    #: Floating point add/subtract (PACE mnemonic ``AFDG``).
    FADD = "AFDG"
    #: Floating point multiply (PACE mnemonic ``MFDG``).
    FMUL = "MFDG"
    #: Floating point divide (PACE mnemonic ``DFDG``).
    FDIV = "DFDG"
    #: Double precision load from memory (``LDDG``).
    LOAD = "LDDG"
    #: Double precision store to memory (``STDG``).
    STORE = "STDG"
    #: Integer / address arithmetic (``INTG``).
    INT = "INTG"
    #: Conditional branch check (PACE mnemonic ``IFBR``).
    BRANCH = "IFBR"
    #: Loop start-up overhead (PACE mnemonic ``LFOR``).
    LOOP = "LFOR"

    @classmethod
    def floating_point(cls) -> tuple["OpCategory", ...]:
        """The categories counted as floating point operations by PAPI."""
        return (cls.FADD, cls.FMUL, cls.FDIV)

    @classmethod
    def memory(cls) -> tuple["OpCategory", ...]:
        """The categories that touch the memory hierarchy."""
        return (cls.LOAD, cls.STORE)

    @classmethod
    def from_mnemonic(cls, mnemonic: str) -> "OpCategory":
        """Resolve a PACE mnemonic (``MFDG`` etc.) or category name (``FMUL``)."""
        token = mnemonic.strip().upper()
        for member in cls:
            if member.value == token or member.name == token:
                return member
        raise KeyError(f"unknown opcode mnemonic: {mnemonic!r}")


@dataclass
class OperationMix:
    """A tally of operations plus the working-set they touch.

    Instances are additive (``+``) and scalable (``*``) so that a per-cell
    mix produced by ``capp`` or by the flop-counting kernel can be scaled up
    to a per-block or per-iteration mix.
    """

    counts: dict[OpCategory, float] = field(default_factory=dict)
    #: Approximate size in bytes of the data the mix streams over.  Used by
    #: the memory hierarchy model to decide which cache level the kernel
    #: runs out of.
    working_set_bytes: float = 0.0

    def __post_init__(self) -> None:
        clean: dict[OpCategory, float] = {}
        for key, value in self.counts.items():
            category = key if isinstance(key, OpCategory) else OpCategory.from_mnemonic(str(key))
            if value < 0:
                raise ProcessorConfigError(f"negative operation count for {category}: {value}")
            clean[category] = clean.get(category, 0.0) + float(value)
        self.counts = clean
        if self.working_set_bytes < 0:
            raise ProcessorConfigError("working_set_bytes must be non-negative")

    # -- queries ------------------------------------------------------------

    def count(self, category: OpCategory) -> float:
        """Number of operations of ``category`` in the mix."""
        return self.counts.get(category, 0.0)

    @property
    def flops(self) -> float:
        """Total floating point operations (what PAPI's ``PAPI_FP_OPS`` counts)."""
        return sum(self.counts.get(cat, 0.0) for cat in OpCategory.floating_point())

    @property
    def memory_accesses(self) -> float:
        """Total load + store operations."""
        return sum(self.counts.get(cat, 0.0) for cat in OpCategory.memory())

    @property
    def total_operations(self) -> float:
        """Total operations of every category."""
        return sum(self.counts.values())

    def is_empty(self) -> bool:
        return self.total_operations == 0

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "OperationMix") -> "OperationMix":
        if not isinstance(other, OperationMix):
            return NotImplemented
        counts = dict(self.counts)
        for category, value in other.counts.items():
            counts[category] = counts.get(category, 0.0) + value
        return OperationMix(counts, max(self.working_set_bytes, other.working_set_bytes))

    def __mul__(self, factor: float) -> "OperationMix":
        if factor < 0:
            raise ProcessorConfigError("cannot scale an OperationMix by a negative factor")
        return OperationMix(
            {category: value * factor for category, value in self.counts.items()},
            self.working_set_bytes,
        )

    __rmul__ = __mul__

    def scaled(self, factor: float, working_set_bytes: float | None = None) -> "OperationMix":
        """Return the mix scaled by ``factor`` with an optional new working set."""
        mix = self * factor
        if working_set_bytes is not None:
            mix.working_set_bytes = float(working_set_bytes)
        return mix

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_mnemonics(cls, tally: Mapping[str, float]) -> "OperationMix":
        """Build a mix from PACE mnemonic names (``{"MFDG": 12, "AFDG": 9}``)."""
        return cls({OpCategory.from_mnemonic(k): v for k, v in tally.items()})


@dataclass
class OpcodeCostTable:
    """Per-opcode cycle costs for a processor.

    Two costs are stored per category:

    ``latency``
        Cycles from issue to result, as measured by a dependent-chain
        micro-benchmark.  This is what the *original* PACE opcode benchmarks
        measured and what the legacy prediction path uses.

    ``throughput``
        Reciprocal throughput — cycles per operation when the operation
        stream exposes instruction level parallelism and the superscalar
        core can overlap execution.  This feeds the achieved-rate model.
    """

    latency: dict[OpCategory, float]
    throughput: dict[OpCategory, float]

    def __post_init__(self) -> None:
        for category in OpCategory:
            if category not in self.latency:
                raise ProcessorConfigError(f"missing latency for opcode {category.name}")
            if category not in self.throughput:
                raise ProcessorConfigError(f"missing throughput for opcode {category.name}")
            if self.latency[category] < self.throughput[category]:
                raise ProcessorConfigError(
                    f"latency below throughput for {category.name}: "
                    f"{self.latency[category]} < {self.throughput[category]}")
            if self.throughput[category] <= 0:
                raise ProcessorConfigError(
                    f"non-positive throughput for {category.name}")

    def latency_cycles(self, mix: OperationMix) -> float:
        """Serial (latency-bound) cycle count of a mix: the legacy estimate."""
        return sum(count * self.latency[cat] for cat, count in mix.counts.items())

    def throughput_cycles(self, mix: OperationMix) -> float:
        """Throughput-bound cycle count of a mix, before ILP/compiler scaling."""
        return sum(count * self.throughput[cat] for cat, count in mix.counts.items())

    @classmethod
    def from_pairs(cls, pairs: Mapping[OpCategory, tuple[float, float]]) -> "OpcodeCostTable":
        """Build a table from ``{category: (latency, throughput)}``."""
        latency = {cat: float(lat) for cat, (lat, _) in pairs.items()}
        throughput = {cat: float(thr) for cat, (_, thr) in pairs.items()}
        return cls(latency, throughput)
