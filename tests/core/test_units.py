"""Tests for unit parsing, formatting and conversions."""

import pytest

from repro.errors import ValidationError
from repro.units import (
    CACHELINE_BYTES,
    GIB,
    KIB,
    MIB,
    align_up,
    bytes_over_time_to_gbps,
    format_ns,
    format_size,
    ns_to_s,
    parse_size,
    transactions_per_second,
)


class TestParseSize:
    def test_plain_integer(self):
        assert parse_size("64") == 64
        assert parse_size(128) == 128

    def test_binary_suffixes(self):
        assert parse_size("8K") == 8 * KIB
        assert parse_size("64MiB") == 64 * MIB
        assert parse_size("1GiB") == GIB

    def test_decimal_suffixes(self):
        assert parse_size("1KB") == 1000
        assert parse_size("2MB") == 2_000_000

    def test_fractional(self):
        assert parse_size("1.5K") == 1536

    def test_whitespace_and_case(self):
        assert parse_size("  4 kib ") == 4 * KIB

    def test_invalid(self):
        with pytest.raises(ValidationError):
            parse_size("lots")
        with pytest.raises(ValidationError):
            parse_size("64Q")
        with pytest.raises(ValidationError):
            parse_size(-1)


class TestFormatSize:
    def test_round_trip_labels_match_paper_axes(self):
        assert format_size(4 * KIB) == "4K"
        assert format_size(64 * MIB) == "64M"
        assert format_size(1 * GIB) == "1G"

    def test_non_multiple_fall_back_to_bytes(self):
        assert format_size(100) == "100B"

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            format_size(-1)


class TestCachelines:
    def test_default_line_is_64(self):
        assert CACHELINE_BYTES == 64


class TestAlignment:
    def test_align_up(self):
        assert align_up(65, 64) == 128
        assert align_up(64, 64) == 64

    def test_bad_alignment(self):
        with pytest.raises(ValidationError):
            align_up(10, 0)
        with pytest.raises(ValidationError):
            align_up(10, -4)


class TestTimeAndBandwidth:
    def test_time_conversions(self):
        assert ns_to_s(2e9) == 2.0

    def test_format_ns(self):
        assert format_ns(500) == "500ns"
        assert format_ns(1500) == "1.50us"
        assert format_ns(2_500_000) == "2.50ms"
        assert format_ns(3e9) == "3.000s"
        assert format_ns(-500) == "-500ns"

    def test_bytes_over_time(self):
        # 1000 bytes in 100 ns -> 10 B/ns -> 80 Gb/s.
        assert bytes_over_time_to_gbps(1000, 100) == pytest.approx(80.0)

    def test_transactions_per_second(self):
        # 1000 transactions in 1 ms -> 1 million transactions per second.
        assert transactions_per_second(1000, 1e6) == pytest.approx(1e6)

    def test_invalid_durations(self):
        with pytest.raises(ValidationError):
            bytes_over_time_to_gbps(100, 0)
        with pytest.raises(ValidationError):
            transactions_per_second(100, -5)
