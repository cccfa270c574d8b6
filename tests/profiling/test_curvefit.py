"""Tests for the piece-wise linear communication curve fit."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.profiling.curvefit import (
    PiecewiseLinearModel,
    fit_piecewise_linear,
    fit_single_line,
)


def evaluate_many(model, sizes):
    """The model evaluated at every size."""
    return np.array([model.evaluate(size) for size in sizes])


class TestPiecewiseLinearModel:
    def test_evaluate_both_segments(self):
        model = PiecewiseLinearModel(A=1000, B=1e-6, C=1e-9, D=5e-6, E=2e-9)
        assert model.evaluate(500) == pytest.approx(1e-6 + 500e-9 * 1)
        assert model.evaluate(2000) == pytest.approx(5e-6 + 2000 * 2e-9)

    def test_dict_roundtrip(self):
        model = PiecewiseLinearModel(A=64, B=1.5, C=0.1, D=3.0, E=0.05)
        assert PiecewiseLinearModel.from_dict(model.as_dict()) == model

    def test_from_dict_missing_key(self):
        with pytest.raises(ModelError):
            PiecewiseLinearModel.from_dict({"A": 1, "B": 2})

    def test_describe(self):
        text = PiecewiseLinearModel(A=1024, B=2e-6, C=1e-9, D=4e-6, E=2e-9).describe()
        assert "1024" in text


class TestFitting:
    def _synthetic(self, breakpoint=8192.0, b=5e-6, c=2e-9, d=20e-6, e=4e-9):
        sizes = np.array([64, 256, 1024, 2048, 4096, 8192,
                          16384, 32768, 65536, 131072, 262144], dtype=float)
        times = np.where(sizes <= breakpoint, b + c * sizes, d + e * sizes)
        return sizes, times

    def test_recovers_exact_piecewise_data(self):
        sizes, times = self._synthetic()
        model = fit_piecewise_linear(sizes, times)
        np.testing.assert_allclose(evaluate_many(model, sizes), times, rtol=1e-6)
        assert model.A == pytest.approx(8192, rel=0.5)
        assert model.C == pytest.approx(2e-9, rel=0.05)
        assert model.E == pytest.approx(4e-9, rel=0.05)

    def test_fit_tolerates_noise(self):
        rng = np.random.default_rng(0)
        sizes, times = self._synthetic()
        noisy = times * rng.normal(1.0, 0.02, size=times.shape)
        model = fit_piecewise_linear(sizes, noisy)
        predictions = evaluate_many(model, sizes)
        assert np.max(np.abs(predictions - times) / times) < 0.10

    def test_unsorted_input(self):
        sizes, times = self._synthetic()
        order = np.argsort(-sizes)
        model = fit_piecewise_linear(sizes[order], times[order])
        np.testing.assert_allclose(evaluate_many(model, sizes), times, rtol=1e-6)

    def test_too_few_points(self):
        with pytest.raises(ModelError):
            fit_piecewise_linear([1, 2, 3], [1.0, 2.0, 3.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ModelError):
            fit_piecewise_linear([1, 2, 3, 4], [1.0, 2.0])

    def test_pure_linear_data(self):
        sizes = np.linspace(8, 1 << 20, 20)
        times = 3e-6 + sizes * 5e-9
        model = fit_piecewise_linear(sizes, times)
        np.testing.assert_allclose(evaluate_many(model, sizes), times, rtol=1e-9)

    def test_single_line_fallback(self):
        sizes = np.array([8.0, 64.0, 512.0, 4096.0])
        times = 1e-6 + sizes * 1e-9
        model = fit_single_line(sizes, times)
        assert model.B == pytest.approx(1e-6)
        assert model.C == pytest.approx(1e-9)
        assert model.evaluate(1 << 20) == pytest.approx(1e-6 + (1 << 20) * 1e-9)
