"""Tests for operation descriptors."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.simmpi.operations import Compute, ReduceOp


class TestReduceOpCombine:
    def test_scalar_sum(self):
        assert ReduceOp.SUM.combine([1.0, 2.0, 3.5]) == pytest.approx(6.5)

    def test_scalar_results_are_python_scalars(self):
        result = ReduceOp.MAX.combine([1.0, 2.0])
        assert isinstance(result, float)

    def test_array_combine_elementwise(self):
        a = np.array([1.0, 5.0])
        b = np.array([3.0, 2.0])
        np.testing.assert_allclose(ReduceOp.MAX.combine([a, b]), [3.0, 5.0])
        np.testing.assert_allclose(ReduceOp.SUM.combine([a, b]), [4.0, 7.0])

    def test_scalar_broadcast_against_array(self):
        a = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(ReduceOp.SUM.combine([a, 1.0]), [2.0, 3.0, 4.0])

    def test_empty_rejected(self):
        with pytest.raises(CommunicatorError):
            ReduceOp.MAX.combine([])


class TestComputeDescriptor:
    def test_negative_rejected(self):
        with pytest.raises(CommunicatorError):
            Compute(-1.0)

    def test_zero_allowed(self):
        assert Compute(0.0).seconds == 0.0
