"""Rank-side facade used by simulated programs to build MPI operations.

A :class:`SimComm` is handed to every rank program.  Its methods *construct*
operation descriptors; the program must ``yield`` them to the engine, which
performs the operation and sends the result back into the generator::

    def program(comm):
        right = (comm.rank + 1) % comm.size
        yield comm.send(np.arange(4.0), dest=right, tag=1)
        data = yield comm.recv(source=(comm.rank - 1) % comm.size, tag=1)
        total = yield comm.allreduce(float(data.sum()), op="sum")
        return total

It builds what SWEEP3D's rank programs yield and nothing more: compute
charges, blocking ``send``/``recv`` with an explicit source (the tag
defaults to 0 on both sides), ``allreduce`` with ``sum`` or ``max``, and
``now``.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi.operations import (
    AllReduce,
    Compute,
    Now,
    Recv,
    ReduceOp,
    Send,
)


def payload_nbytes(payload: Any) -> float:
    """Estimate the on-the-wire size in bytes of a payload object.

    numpy arrays report their true buffer size; scalars count as one double;
    flat sequences of numbers count 8 bytes per element; anything else falls
    back to ``sys.getsizeof``.
    """
    if payload is None:
        return 0.0
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    if isinstance(payload, (bool, int, float, np.generic)):
        return 8.0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return float(len(payload))
    if isinstance(payload, (list, tuple)) and all(
            isinstance(item, (bool, int, float, np.generic)) for item in payload):
        return 8.0 * len(payload)
    return float(sys.getsizeof(payload))


class SimComm:
    """Communicator handle for one simulated rank.

    Instances are created by the scheduling loop
    (:func:`~repro.simmpi.engine.run_ranks`);
    user code receives one as the first argument of its rank program.
    """

    def __init__(self, rank: int, size: int):
        if size < 1:
            raise CommunicatorError("communicator size must be >= 1")
        if not 0 <= rank < size:
            raise CommunicatorError(f"rank {rank} outside communicator of size {size}")
        self._rank = rank
        self._size = size

    # -- introspection -------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank in the communicator (0-based)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._size

    def __repr__(self) -> str:
        return f"SimComm(rank={self._rank}, size={self._size})"

    # -- timing --------------------------------------------------------------

    def now(self) -> Now:
        """Read this rank's virtual clock (the simulated ``MPI_Wtime``)."""
        return Now()

    # -- computation ---------------------------------------------------------

    def compute(self, seconds: float) -> Compute:
        """Charge ``seconds`` of CPU time to this rank."""
        return Compute(float(seconds))

    # -- point to point ------------------------------------------------------

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self._size:
            raise CommunicatorError(
                f"peer rank {peer} outside communicator of size {self._size}")

    def send(self, payload: Any, dest: int, tag: int = 0,
             nbytes: float | None = None) -> Send:
        """Blocking standard-mode send."""
        self._check_peer(dest)
        size = payload_nbytes(payload) if nbytes is None else float(nbytes)
        return Send(dest=dest, payload=payload, nbytes=size, tag=tag)

    def recv(self, source: int, tag: int = 0) -> Recv:
        """Blocking receive from ``source``; yields the received payload."""
        self._check_peer(source)
        return Recv(source=source, tag=tag)

    # -- collectives ---------------------------------------------------------

    def allreduce(self, value: Any, op: ReduceOp | str) -> AllReduce:
        """Reduce ``value`` across all ranks; every rank yields the result."""
        return AllReduce(value=value, op=ReduceOp.coerce(op),
                         nbytes=payload_nbytes(value))
