"""C-language characterisation (clc) operation vectors.

A clc describes a fragment of serial C code as a tally of performance
critical operations, keyed by the PACE mnemonics (``AFDG`` floating add,
``MFDG`` floating multiply, ``DFDG`` floating divide, ``LDDG``/``STDG``
double loads/stores, ``INTG`` integer ops, ``IFBR`` conditional branches,
``LFOR`` loop start-ups).  The paper keeps only the floating point
mnemonics in its hardware layer and treats the rest as negligible;
:class:`ClcVector` carries them all so both the coarse and the legacy cost
models can be applied to the same characterisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Mnemonics considered floating point operations.
FLOAT_MNEMONICS = ("AFDG", "MFDG", "DFDG")

#: All mnemonics recognised in clc descriptions, in canonical order.
ALL_MNEMONICS = ("AFDG", "MFDG", "DFDG", "LDDG", "STDG", "INTG", "IFBR", "LFOR")


@dataclass
class ClcVector:
    """A tally of clc operations.

    Supports addition and scaling so that per-statement tallies can be
    accumulated over loops and branches exactly as ``capp`` and the PSL
    ``cflow`` interpreter require.
    """

    counts: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[str, float] = {}
        for key, value in self.counts.items():
            mnemonic = str(key).upper()
            if mnemonic not in ALL_MNEMONICS:
                raise KeyError(f"unknown clc mnemonic {key!r}")
            clean[mnemonic] = clean.get(mnemonic, 0.0) + float(value)
        self.counts = clean

    # -- queries ------------------------------------------------------------

    def count(self, mnemonic: str) -> float:
        return self.counts.get(mnemonic.upper(), 0.0)

    @property
    def flops(self) -> float:
        """Total floating point operations in the tally."""
        return sum(self.counts.get(m, 0.0) for m in FLOAT_MNEMONICS)

    @property
    def total(self) -> float:
        return sum(self.counts.values())

    def is_empty(self) -> bool:
        return not any(self.counts.values())

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "ClcVector") -> "ClcVector":
        if not isinstance(other, ClcVector):
            return NotImplemented
        counts = dict(self.counts)
        for mnemonic, value in other.counts.items():
            counts[mnemonic] = counts.get(mnemonic, 0.0) + value
        return ClcVector(counts)

    def __mul__(self, factor: float) -> "ClcVector":
        return ClcVector({m: v * factor for m, v in self.counts.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClcVector):
            return NotImplemented
        keys = set(self.counts) | set(other.counts)
        return all(abs(self.count(k) - other.count(k)) < 1e-12 for k in keys)

    # -- conversions ------------------------------------------------------------

    def as_dict(self) -> dict[str, float]:
        """Canonically ordered dictionary of the non-zero counts."""
        return {m: self.counts[m] for m in ALL_MNEMONICS if self.counts.get(m)}

    def describe(self) -> str:
        parts = [f"{m}:{v:g}" for m, v in self.as_dict().items()]
        return "clc(" + ", ".join(parts) + ")"
