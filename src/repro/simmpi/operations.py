"""Operation descriptors yielded by simulated rank programs.

Rank programs never manipulate the engine directly; they build these small
descriptor objects through the :class:`~repro.simmpi.communicator.SimComm`
facade and ``yield`` them.  The engine interprets each descriptor, advances
virtual time and sends the operation's result back into the generator.

The operations are the ones SWEEP3D's rank programs need: compute charges,
blocking ``MPI_Send``/``MPI_Recv`` with an explicit source and tag, the
``globalmax``/``globalsum`` reductions and the ``MPI_Wtime`` clock read
of the ping-pong benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

import numpy as np

from repro.errors import CommunicatorError

#: Operation codes: the scheduling loop (:mod:`repro.simmpi.engine`)
#: dispatches on ``op.code`` rather than on the operation's class.
OP_COMPUTE, OP_SEND, OP_RECV, OP_ALLREDUCE, OP_NOW = range(5)


class ReduceOp(str, Enum):
    """Reduction operators supported by :class:`AllReduce`."""

    SUM = "sum"
    MAX = "max"

    def combine(self, values: Sequence[Any]) -> Any:
        """Apply the reduction across per-rank contributions."""
        if not values:
            raise CommunicatorError("cannot reduce an empty contribution list")
        arrays = [np.asarray(v) for v in values]
        stacked = np.stack([np.broadcast_to(a, arrays[0].shape) if a.shape != arrays[0].shape
                            else a for a in arrays])
        if self is ReduceOp.SUM:
            result = stacked.sum(axis=0)
        else:
            result = stacked.max(axis=0)
        if result.shape == ():
            return result.item()
        return result

    @classmethod
    def coerce(cls, op: "ReduceOp | str") -> "ReduceOp":
        if isinstance(op, ReduceOp):
            return op
        try:
            return cls(str(op).lower())
        except ValueError:
            raise CommunicatorError(f"unknown reduction operator {op!r}") from None


class Operation:
    """Marker base class for everything a rank program may ``yield``."""

    __slots__ = ()


@dataclass
class Compute(Operation):
    """Charge ``seconds`` of CPU time to the issuing rank's clock."""

    code = OP_COMPUTE

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise CommunicatorError("compute time must be >= 0")


@dataclass
class Send(Operation):
    """Blocking standard-mode send (``MPI_Send``)."""

    code = OP_SEND

    dest: int
    payload: Any
    nbytes: float
    tag: int


@dataclass
class Recv(Operation):
    """Blocking receive (``MPI_Recv``); evaluates to the received payload."""

    code = OP_RECV

    source: int
    tag: int


@dataclass
class AllReduce(Operation):
    """Combine ``value`` across all ranks; evaluates to the reduced value on every rank."""

    code = OP_ALLREDUCE

    value: Any
    op: ReduceOp
    nbytes: float


@dataclass
class Now(Operation):
    """Read the issuing rank's virtual clock; evaluates to seconds since start.

    The equivalent of ``MPI_Wtime()`` — used by the MPI micro-benchmark
    substitute to time individual operations in virtual time.
    """

    code = OP_NOW
