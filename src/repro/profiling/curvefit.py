"""Piece-wise linear fitting of communication benchmark data.

Section 4.4 of the paper models the time to transfer ``x`` bytes as

.. math::

    T(x) = \\begin{cases} B + C x, & x \\le A \\\\ D + E x, & x \\ge A \\end{cases}

"simply a curve fit for a set of data points" gathered by an MPI benchmark.
:func:`fit_piecewise_linear` performs that fit: for every candidate break
point ``A`` (taken from the measured sizes) it solves two least-squares
lines and keeps the break point with the smallest total squared error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ModelError

if TYPE_CHECKING:
    import numpy as np

#: Fewest samples either segment of a two-segment fit may hold.
MIN_POINTS_PER_SEGMENT = 2


@dataclass(frozen=True)
class PiecewiseLinearModel:
    """The fitted A-E parameters of the paper's equation (3).

    ``evaluate(x)`` returns the modelled transfer time for ``x`` bytes.
    """

    A: float
    B: float
    C: float
    D: float
    E: float

    def evaluate(self, nbytes: float) -> float:
        """Modelled time for a message of ``nbytes``."""
        if nbytes <= self.A:
            return self.B + self.C * nbytes
        return self.D + self.E * nbytes

    def as_dict(self) -> dict[str, float]:
        """The parameters keyed ``A``..``E`` (the HMCL representation)."""
        return {"A": self.A, "B": self.B, "C": self.C, "D": self.D, "E": self.E}

    @classmethod
    def from_dict(cls, values: dict[str, float]) -> "PiecewiseLinearModel":
        try:
            return cls(A=float(values["A"]), B=float(values["B"]), C=float(values["C"]),
                       D=float(values["D"]), E=float(values["E"]))
        except KeyError as exc:
            raise ModelError(f"piecewise model missing parameter {exc}") from exc

    def describe(self) -> str:
        return (f"T(x) = {self.B * 1e6:.2f}us + {self.C * 1e9:.3f}ns/B (x <= {self.A:.0f}B); "
                f"{self.D * 1e6:.2f}us + {self.E * 1e9:.3f}ns/B (x > {self.A:.0f}B)")


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit returning (intercept, slope, sse)."""
    import numpy as np

    if len(x) == 1:
        return float(y[0]), 0.0, 0.0
    design = np.vstack([np.ones_like(x), x]).T
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = float(coeffs[0]), float(coeffs[1])
    residual = y - (intercept + slope * x)
    return intercept, slope, float(residual @ residual)


def fit_piecewise_linear(sizes: Sequence[float],
                         times: Sequence[float]) -> PiecewiseLinearModel:
    """Fit the two-segment model of equation (3) to benchmark data.

    Parameters
    ----------
    sizes, times:
        Measured message sizes (bytes) and transfer times (seconds).

    Raises
    ------
    ModelError
        If fewer than ``2 * MIN_POINTS_PER_SEGMENT`` samples are supplied.
    """
    import numpy as np

    x = np.asarray(sizes, dtype=float)
    y = np.asarray(times, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ModelError("sizes and times must be 1-D sequences of equal length")
    if len(x) < 2 * MIN_POINTS_PER_SEGMENT:
        raise ModelError(
            f"need at least {2 * MIN_POINTS_PER_SEGMENT} samples for a two-segment fit "
            f"(got {len(x)})")
    order = np.argsort(x)
    x, y = x[order], y[order]

    best: tuple[float, PiecewiseLinearModel] | None = None
    for split in range(MIN_POINTS_PER_SEGMENT, len(x) - MIN_POINTS_PER_SEGMENT + 1):
        b, c, sse_low = _linear_fit(x[:split], y[:split])
        d, e, sse_high = _linear_fit(x[split:], y[split:])
        sse = sse_low + sse_high
        breakpoint_size = float(x[split - 1])
        model = PiecewiseLinearModel(A=breakpoint_size, B=b, C=c, D=d, E=e)
        if best is None or sse < best[0]:
            best = (sse, model)
    assert best is not None
    return best[1]


def fit_single_line(sizes: Sequence[float], times: Sequence[float]) -> PiecewiseLinearModel:
    """Degenerate single-segment fit (both halves identical).

    Useful when a link shows no protocol switch over the measured range.
    """
    import numpy as np

    x = np.asarray(sizes, dtype=float)
    y = np.asarray(times, dtype=float)
    intercept, slope, _ = _linear_fit(x, y)
    return PiecewiseLinearModel(A=float(x.max()), B=intercept, C=slope,
                                D=intercept, E=slope)
