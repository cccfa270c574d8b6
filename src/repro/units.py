"""Unit helpers used throughout the package.

All internal computation uses SI base units: **seconds** for time and
**bytes** for message/data sizes.  Rates are expressed in operations (or
bytes) per second.  The helpers here exist to make the intent of literal
constants obvious at call sites (``5 * units.USEC`` rather than ``5e-6``)
and to format quantities for reports.
"""

from __future__ import annotations

import math

# -- time -------------------------------------------------------------------

SEC = 1.0
MSEC = 1e-3
USEC = 1e-6
NSEC = 1e-9

# -- data sizes -------------------------------------------------------------

BYTE = 1
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

#: Size of a double precision floating point number in bytes.
DOUBLE_BYTES = 8

# -- rates ------------------------------------------------------------------

MFLOPS = 1e6
GFLOPS = 1e9

MB_PER_S = 1e6
GB_PER_S = 1e9


def snap_to_grid(value: float, quantum: float) -> float:
    """Round ``value`` to the nearest multiple of ``quantum`` seconds.

    With a power-of-two quantum (e.g. ``2**-30``) the returned value is an
    *exact* binary multiple of the quantum: ``value / quantum`` and the
    final product are both exact float operations, so every snapped
    duration lives on one shared dyadic time grid.  The steady-state
    execution tier (:mod:`repro.simmpi.steady`) relies on that property —
    durations on a common dyadic grid make the whole max-plus replay exact
    integer arithmetic, which is what lets a per-period growth vector be
    extrapolated bit-identically.  ``quantum <= 0`` returns ``value``
    unchanged (the continuous-timebase default).
    """
    if quantum <= 0.0:
        return value
    return round(value / quantum) * quantum


def usec(value: float) -> float:
    """Convert a value expressed in microseconds to seconds."""
    return value * USEC


def mbytes_per_s(value: float) -> float:
    """Convert a bandwidth expressed in MB/s (decimal) to bytes/s."""
    return value * MB_PER_S


def doubles(count: float) -> float:
    """Size in bytes of ``count`` double precision values."""
    return count * DOUBLE_BYTES


def format_seconds(value: float) -> str:
    """Render a duration with an auto-selected unit.

    >>> format_seconds(0.0000032)
    '3.20 us'
    >>> format_seconds(12.5)
    '12.50 s'
    """
    if not math.isfinite(value):
        return str(value)
    magnitude = abs(value)
    if magnitude >= 1.0 or magnitude == 0.0:
        return f"{value:.2f} s"
    if magnitude >= MSEC:
        return f"{value / MSEC:.2f} ms"
    if magnitude >= USEC:
        return f"{value / USEC:.2f} us"
    return f"{value / NSEC:.2f} ns"


def format_rate(value: float) -> str:
    """Render an operation rate (ops/second) with an auto-selected unit."""
    magnitude = abs(value)
    if magnitude >= GFLOPS:
        return f"{value / GFLOPS:.1f} Gop/s"
    if magnitude >= MFLOPS:
        return f"{value / MFLOPS:.1f} Mop/s"
    return f"{value:.1f} op/s"


def relative_error(measured: float, predicted: float) -> float:
    """Signed relative error in percent, using the paper's convention.

    The paper reports ``error = (measured - predicted) / measured * 100`` so
    that an *over*-prediction yields a negative error (Tables 1 and 2 are
    dominated by negative errors; Table 3 by positive ones).
    """
    if measured == 0:
        raise ZeroDivisionError("relative error undefined for zero measurement")
    return (measured - predicted) / measured * 100.0
