"""In-memory hardware resource model (the HMCL object)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.core.clc import ALL_MNEMONICS, FLOAT_MNEMONICS, ClcVector
from repro.errors import HmclLookupError
from repro.profiling.curvefit import PiecewiseLinearModel


@dataclass(frozen=True)
class CpuCostModel:
    """Per-clc-operation time costs (seconds) of one processor.

    Two construction styles correspond to the paper's two benchmarking
    approaches:

    * :meth:`from_achieved_rate` — the *coarse* approach: every floating
      point mnemonic costs ``1 / rate`` seconds and every bookkeeping
      mnemonic costs zero (their cost is absorbed into the achieved rate).
    * :meth:`from_opcode_benchmark` — the *legacy* approach: every mnemonic
      carries its micro-benchmarked time.
    """

    #: Seconds per operation, keyed by clc mnemonic.  Missing mnemonics cost 0.
    op_costs: dict[str, float] = field(default_factory=dict)
    #: Label describing how the costs were obtained ("achieved-rate",
    #: "opcode-benchmark", "manual").
    source: str = "manual"

    def __post_init__(self) -> None:
        for mnemonic, cost in self.op_costs.items():
            if mnemonic.upper() not in ALL_MNEMONICS:
                raise HmclLookupError(f"unknown clc mnemonic in cpu section: {mnemonic}")
            if cost < 0:
                raise HmclLookupError(f"negative cost for {mnemonic}: {cost}")

    def cost(self, mnemonic: str) -> float:
        """Seconds per operation of ``mnemonic``."""
        return self.op_costs.get(mnemonic.upper(), 0.0)

    def evaluate(self, clc: ClcVector) -> float:
        """Seconds to execute a clc tally on this processor."""
        return sum(count * self.cost(mnemonic) for mnemonic, count in clc.counts.items())

    @property
    def seconds_per_flop(self) -> float:
        """Representative floating point cost (the ``MFDG`` entry)."""
        return self.cost("MFDG")

    @property
    def achieved_mflops(self) -> float:
        """Achieved rate implied by the floating point cost."""
        cost = self.seconds_per_flop
        if cost <= 0:
            raise HmclLookupError("cpu section has no floating point cost")
        return 1.0 / cost / units.MFLOPS

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_achieved_rate(cls, flop_rate: float) -> "CpuCostModel":
        """Coarse model: a single achieved floating point rate (flop/s)."""
        if flop_rate <= 0:
            raise HmclLookupError("achieved flop rate must be positive")
        per_flop = 1.0 / flop_rate
        costs = {mnemonic: per_flop for mnemonic in FLOAT_MNEMONICS}
        # Branch and loop opcodes are taken to be negligible (Section 4.3).
        costs.update({"LDDG": 0.0, "STDG": 0.0, "INTG": 0.0, "IFBR": 0.0, "LFOR": 0.0})
        return cls(op_costs=costs, source="achieved-rate")

    @classmethod
    def from_opcode_benchmark(cls, benchmark: dict[str, float]) -> "CpuCostModel":
        """Legacy model: per-opcode times from dependent-chain micro-benchmarks."""
        return cls(op_costs={m.upper(): float(t) for m, t in benchmark.items()},
                   source="opcode-benchmark")


@dataclass(frozen=True)
class MpiCostModel:
    """The three fitted A-E parameter sets of the ``mpi`` HMCL section."""

    send: PiecewiseLinearModel
    recv: PiecewiseLinearModel
    pingpong: PiecewiseLinearModel

    def send_cost(self, nbytes: float) -> float:
        """CPU time a blocking send occupies on the sender."""
        return max(0.0, self.send.evaluate(nbytes))

    def recv_cost(self, nbytes: float) -> float:
        """CPU time a receive occupies once its message has arrived."""
        return max(0.0, self.recv.evaluate(nbytes))

    def delivery_cost(self, nbytes: float) -> float:
        """End-to-end one-way delivery time (half the ping-pong time)."""
        return max(0.0, self.pingpong.evaluate(nbytes) / 2.0)

    def collective_cost(self, nranks: int, nbytes: float, phases: int = 2) -> float:
        """Cost of a binomial-tree collective over ``nranks`` ranks.

        ``phases`` is 2 for reduce-then-broadcast style collectives
        (allreduce, the ``globalsum``/``globalmax`` templates) and 1 for a
        one-way broadcast.
        """
        if nranks <= 1:
            return 0.0
        rounds = 0
        remaining = nranks - 1
        while remaining > 0:
            rounds += 1
            remaining //= 2
        return phases * rounds * self.delivery_cost(nbytes)

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {"send": self.send.as_dict(), "recv": self.recv.as_dict(),
                "pingpong": self.pingpong.as_dict()}


@dataclass(frozen=True)
class HardwareModel:
    """A complete HMCL hardware object: cpu + mpi sections plus metadata."""

    name: str
    cpu: CpuCostModel
    mpi: MpiCostModel
    processors_per_node: int = 2
    description: str = ""

    def compute_time(self, clc: ClcVector) -> float:
        """Seconds to execute a clc tally on one processor of this machine."""
        return self.cpu.evaluate(clc)

    def describe(self) -> str:
        return (f"{self.name}: {self.cpu.achieved_mflops:.0f} MFLOPS achieved "
                f"({self.cpu.source}); mpi send {self.mpi.send.describe()}")
