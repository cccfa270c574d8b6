"""Memory hierarchy model.

The paper's key observation is that fine-grained opcode benchmarking ignores
"complex memory hierarchies"; the coarse achieved-flop-rate approach absorbs
those effects automatically.  To reproduce that effect the simulated
processors need a memory system whose cost *depends on the per-processor
working set*, so that the achieved MFLOPS rate measured for a 50x50x50
sub-domain differs from the one measured for 5x5x100 — exactly the
dependence the paper notes ("This rate changes according to the problem size
per processor and requires updating ...").

The model is deliberately simple: a stack of inclusive cache levels, each
described by a capacity and an access cost, with a capacity-based hit-rate
heuristic.  It captures the first-order effect (streaming kernels running
out of L1/L2/memory) without attempting cycle accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ProcessorConfigError


@dataclass(frozen=True)
class CacheLevel:
    """One level of the cache hierarchy.

    Parameters
    ----------
    name:
        Human readable label, e.g. ``"L1"``.
    capacity_bytes:
        Usable capacity of the level.
    access_cycles:
        Cost in CPU cycles of a hit in this level (load-to-use).
    line_bytes:
        Cache line size; spatial locality means only one miss is paid per
        line of consecutive data streamed.
    """

    name: str
    capacity_bytes: float
    access_cycles: float
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ProcessorConfigError(f"{self.name}: capacity must be positive")
        if self.access_cycles < 0:
            raise ProcessorConfigError(f"{self.name}: access cycles must be >= 0")
        if self.line_bytes <= 0:
            raise ProcessorConfigError(f"{self.name}: line size must be positive")


@dataclass(frozen=True)
class MemoryHierarchy:
    """A stack of cache levels backed by main memory.

    Parameters
    ----------
    levels:
        Cache levels ordered from closest (L1) to furthest from the core.
    memory_access_cycles:
        Cost in cycles of a main-memory access (for one cache line).
    streaming_factor:
        Fraction of a kernel's memory accesses that actually leave the
        registers and probe the hierarchy; compilers keep the hot scalars of
        a stencil/sweep kernel in registers so this is well below 1.
    """

    levels: tuple[CacheLevel, ...]
    memory_access_cycles: float
    streaming_factor: float = 0.35

    def __init__(self, levels: Sequence[CacheLevel], memory_access_cycles: float,
                 streaming_factor: float = 0.35):
        object.__setattr__(self, "levels", tuple(levels))
        object.__setattr__(self, "memory_access_cycles", float(memory_access_cycles))
        object.__setattr__(self, "streaming_factor", float(streaming_factor))
        if not self.levels:
            raise ProcessorConfigError("a memory hierarchy needs at least one cache level")
        if self.memory_access_cycles < 0:
            raise ProcessorConfigError("memory access cycles must be >= 0")
        if not 0.0 < self.streaming_factor <= 1.0:
            raise ProcessorConfigError("streaming_factor must be in (0, 1]")
        capacities = [level.capacity_bytes for level in self.levels]
        if capacities != sorted(capacities):
            raise ProcessorConfigError("cache levels must be ordered by increasing capacity")

    # ------------------------------------------------------------------

    def hit_fractions(self, working_set_bytes: float) -> list[tuple[str, float]]:
        """Fraction of probing accesses served by each level (and memory).

        A simple capacity model: a working set of size ``W`` streamed
        repeatedly through a level of capacity ``C`` hits with probability
        ``min(1, C / W)``; the remainder falls through to the next level.
        The returned list ends with a ``("memory", fraction)`` entry and the
        fractions sum to 1.
        """
        if working_set_bytes < 0:
            raise ProcessorConfigError("working set must be non-negative")
        remaining = 1.0
        fractions: list[tuple[str, float]] = []
        for level in self.levels:
            if working_set_bytes <= 0:
                served = remaining
            else:
                served = remaining * min(1.0, level.capacity_bytes / working_set_bytes)
            fractions.append((level.name, served))
            remaining -= served
            if remaining <= 1e-15:
                remaining = 0.0
                break
        fractions.append(("memory", remaining))
        return fractions

    def average_access_cycles(self, working_set_bytes: float) -> float:
        """Average cycles per *memory-touching operation* for a streamed working set.

        Accesses that miss all cache levels pay the main-memory cost, but
        spatial locality amortises that cost over the ``line_bytes / 8``
        consecutive double-precision elements of a line.
        """
        fractions = self.hit_fractions(working_set_bytes)
        last_level = self.levels[-1]
        elements_per_line = max(1.0, last_level.line_bytes / 8.0)
        cycles = 0.0
        for (name, fraction), level in zip(fractions[:-1], self.levels):
            cycles += fraction * level.access_cycles
        memory_fraction = fractions[-1][1]
        cycles += memory_fraction * (self.memory_access_cycles / elements_per_line
                                     + last_level.access_cycles)
        return cycles

    def stall_cycles(self, memory_accesses: float,
                     working_set_bytes: float) -> float:
        """Total stall cycles for ``memory_accesses`` operations on a working set.

        Only the ``streaming_factor`` fraction of accesses probe the
        hierarchy (the rest hit registers / store buffers), and the L1 hit
        cost is treated as already covered by the opcode throughput cost, so
        only the *excess* over the L1 cost is charged as stall time.
        """
        if memory_accesses <= 0:
            return 0.0
        average = self.average_access_cycles(working_set_bytes)
        l1_cost = self.levels[0].access_cycles
        excess = max(0.0, average - l1_cost)
        return memory_accesses * self.streaming_factor * excess

    def describe(self) -> str:
        """One-line human readable description of the hierarchy."""
        parts = [
            f"{level.name}={level.capacity_bytes / 1024:.0f}KiB@{level.access_cycles:g}cy"
            for level in self.levels
        ]
        parts.append(f"mem@{self.memory_access_cycles:g}cy")
        return " / ".join(parts)
