"""Operation descriptors yielded by simulated rank programs.

Rank programs never manipulate the engine directly; they build these small
descriptor objects through the :class:`~repro.simmpi.communicator.SimComm`
facade and ``yield`` them.  The engine interprets each descriptor, advances
virtual time and sends the operation's result back into the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

import numpy as np

from repro.errors import CommunicatorError

#: Wildcard values mirroring ``MPI_ANY_SOURCE`` / ``MPI_ANY_TAG``.
ANY_SOURCE = -1
ANY_TAG = -1

#: Operation codes: the scheduling loop (:mod:`repro.simmpi.engine`)
#: dispatches on ``op.code`` rather than on the operation's class.
(OP_COMPUTE, OP_SEND, OP_RECV, OP_ISEND, OP_IRECV, OP_WAIT, OP_WAITALL,
 OP_ALLREDUCE, OP_BARRIER, OP_BCAST, OP_NOW) = range(11)


class ReduceOp(str, Enum):
    """Reduction operators supported by the simulated collectives."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"
    PROD = "prod"

    def combine(self, values: Sequence[Any]) -> Any:
        """Apply the reduction across per-rank contributions."""
        if not values:
            raise CommunicatorError("cannot reduce an empty contribution list")
        arrays = [np.asarray(v) for v in values]
        stacked = np.stack([np.broadcast_to(a, arrays[0].shape) if a.shape != arrays[0].shape
                            else a for a in arrays])
        if self is ReduceOp.SUM:
            result = stacked.sum(axis=0)
        elif self is ReduceOp.MAX:
            result = stacked.max(axis=0)
        elif self is ReduceOp.MIN:
            result = stacked.min(axis=0)
        else:
            result = stacked.prod(axis=0)
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
    tag: int = 0


@dataclass
class Recv(Operation):
    """Blocking receive (``MPI_Recv``); evaluates to the received payload."""

    code = OP_RECV

    source: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass
class Isend(Operation):
    """Non-blocking send; evaluates to a :class:`~repro.simmpi.request.Request`."""

    code = OP_ISEND

    dest: int
    payload: Any
    nbytes: float
    tag: int = 0


@dataclass
class Irecv(Operation):
    """Non-blocking receive; evaluates to a :class:`~repro.simmpi.request.Request`."""

    code = OP_IRECV

    source: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass
class Wait(Operation):
    """Block until ``request`` completes; evaluates to its payload (recv) or ``None``."""

    code = OP_WAIT

    request: Any


@dataclass
class WaitAll(Operation):
    """Block until every request in ``requests`` completes; evaluates to a list."""

    code = OP_WAITALL

    requests: list = field(default_factory=list)


@dataclass
class AllReduce(Operation):
    """Combine ``value`` across all ranks; evaluates to the reduced value on every rank."""

    code = OP_ALLREDUCE

    value: Any
    op: ReduceOp = ReduceOp.SUM
    nbytes: float = 8.0


@dataclass
class Barrier(Operation):
    """Synchronise all ranks."""

    code = OP_BARRIER


@dataclass
class Bcast(Operation):
    """Broadcast ``value`` from ``root``; evaluates to the root's value on every rank."""

    code = OP_BCAST

    value: Any
    root: int = 0
    nbytes: float = 8.0


@dataclass
class Now(Operation):
    """Read the issuing rank's virtual clock; evaluates to seconds since start.

    The equivalent of ``MPI_Wtime()`` — used by the MPI micro-benchmark
    substitute to time individual operations in virtual time.
    """

    code = OP_NOW
