"""Tests for the SimComm facade and payload size estimation."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.simmpi.communicator import SimComm, payload_nbytes
from repro.simmpi.operations import Compute, Recv, Send


class TestPayloadSize:
    def test_numpy_array(self):
        assert payload_nbytes(np.zeros(100)) == 800

    def test_scalars(self):
        assert payload_nbytes(1.5) == 8
        assert payload_nbytes(7) == 8
        assert payload_nbytes(np.float64(2.0)) == 8

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_numeric_sequence(self):
        assert payload_nbytes([1.0, 2.0, 3.0]) == 24

    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_fallback_for_objects(self):
        assert payload_nbytes({"a": 1}) > 0


class TestSimComm:
    def test_rank_and_size(self):
        comm = SimComm(2, 4)
        assert comm.rank == 2
        assert comm.size == 4

    def test_invalid_construction(self):
        with pytest.raises(CommunicatorError):
            SimComm(4, 4)
        with pytest.raises(CommunicatorError):
            SimComm(0, 0)

    def test_send_builds_descriptor(self):
        comm = SimComm(0, 2)
        op = comm.send(np.zeros(10), dest=1, tag=7)
        assert isinstance(op, Send)
        assert op.dest == 1 and op.tag == 7 and op.nbytes == 80

    def test_send_explicit_nbytes(self):
        comm = SimComm(0, 2)
        assert comm.send(None, dest=1, nbytes=1234).nbytes == 1234

    def test_send_to_invalid_rank(self):
        comm = SimComm(0, 2)
        with pytest.raises(CommunicatorError):
            comm.send(1.0, dest=5)

    def test_recv_tag_defaults_to_sends(self):
        comm = SimComm(0, 2)
        op = comm.recv(source=1)
        assert isinstance(op, Recv)
        assert op.source == 1
        assert op.tag == comm.send(None, dest=1).tag == 0

    def test_recv_invalid_source(self):
        comm = SimComm(0, 2)
        with pytest.raises(CommunicatorError):
            comm.recv(source=9)

    def test_recv_refuses_a_wildcard_source(self):
        """There is no ANY_SOURCE: -1, MPI's wildcard, is no rank."""
        with pytest.raises(CommunicatorError, match="outside communicator"):
            SimComm(0, 2).recv(source=-1)

    def test_compute_negative_rejected(self):
        comm = SimComm(0, 1)
        with pytest.raises(CommunicatorError):
            comm.compute(-1.0)

    def test_compute_descriptor(self):
        comm = SimComm(0, 1)
        op = comm.compute(0.5)
        assert isinstance(op, Compute)
        assert op.seconds == 0.5

    def test_allreduce_coerces_operator(self):
        comm = SimComm(0, 2)
        op = comm.allreduce(1.0, op="max")
        assert op.op.value == "max"

    def test_allreduce_sizes_its_message_from_the_value(self):
        comm = SimComm(0, 2)
        assert comm.allreduce(1.0, op="sum").nbytes == 8
        assert comm.allreduce(np.zeros(4), op="max").nbytes == 32

    def test_repr(self):
        assert "rank=1" in repr(SimComm(1, 8))
