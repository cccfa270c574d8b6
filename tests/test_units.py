"""Tests for repro.units."""

import math

import pytest

from repro import units


class TestConversions:
    def test_usec(self):
        assert units.usec(5.0) == pytest.approx(5e-6)

    def test_mbytes_per_s(self):
        assert units.mbytes_per_s(240) == pytest.approx(240e6)

    def test_doubles(self):
        assert units.doubles(100) == 800

    def test_constants_consistent(self):
        assert units.KIB == 1024
        assert units.MIB == 1024 ** 2
        assert units.GIB == 1024 ** 3
        assert units.DOUBLE_BYTES == 8


class TestFormatting:
    def test_format_seconds_seconds(self):
        assert units.format_seconds(12.5) == "12.50 s"

    def test_format_seconds_milliseconds(self):
        assert units.format_seconds(3.2e-3) == "3.20 ms"

    def test_format_seconds_microseconds(self):
        assert units.format_seconds(3.2e-6) == "3.20 us"

    def test_format_seconds_nanoseconds(self):
        assert "ns" in units.format_seconds(5e-9)

    def test_format_seconds_zero(self):
        assert units.format_seconds(0.0) == "0.00 s"

    def test_format_seconds_non_finite(self):
        assert units.format_seconds(math.inf) == "inf"

    def test_format_rate(self):
        assert units.format_rate(1.5e9) == "1.5 Gop/s"
        assert units.format_rate(110e6) == "110.0 Mop/s"
        assert units.format_rate(99.0) == "99.0 op/s"


class TestRelativeError:
    def test_sign_convention_matches_paper(self):
        # Over-prediction yields a negative error, as in Tables 1 and 2.
        assert units.relative_error(measured=26.54, predicted=28.59) < 0
        # Under-prediction yields a positive error, as in Table 3.
        assert units.relative_error(measured=14.66, predicted=13.95) > 0

    def test_value(self):
        assert units.relative_error(100.0, 90.0) == pytest.approx(10.0)

    def test_zero_measurement_raises(self):
        with pytest.raises(ZeroDivisionError):
            units.relative_error(0.0, 1.0)
