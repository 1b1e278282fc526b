"""Decimal weight parsing and minimal-digit formatting."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fuzzydom.weights import (
    MalformedWeightError,
    OutOfRangeError,
    OverPrecisionError,
    format_weight,
    is_decimal_exact,
    parse_weight,
)


@pytest.mark.parametrize("text,expected", [
    ("0", Fraction(0)),
    ("1", Fraction(1)),
    ("0.5", Fraction(1, 2)),
    ("0.15", Fraction(3, 20)),
    ("1.0", Fraction(1)),
    ("1.000000", Fraction(1)),
    (".5", Fraction(1, 2)),
    ("0.000001", Fraction(1, 10**6)),
])
def test_parse_accepts_decimals(text, expected):
    assert parse_weight(text) == expected


@pytest.mark.parametrize("text", [
    "", "abc", "1.", "0..1", "0.1.2", "-0.1", "+0.5", "1e-3",
    "01", "0,5", "1/2",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(MalformedWeightError):
        parse_weight(text)


def test_parse_tolerates_surrounding_whitespace():
    assert parse_weight(" 0.5\n") == Fraction(1, 2)


def test_parse_rejects_seven_fractional_digits():
    with pytest.raises(OverPrecisionError):
        parse_weight("0.1234567")


def test_parse_rejects_values_above_one():
    with pytest.raises(OutOfRangeError):
        parse_weight("1.000001")


@pytest.mark.parametrize("value,text", [
    (Fraction(0), "0"),
    (Fraction(1), "1"),
    (Fraction(1, 2), "0.5"),
    (Fraction(3, 20), "0.15"),
    (Fraction(7, 10), "0.7"),
    (Fraction(3, 8), "0.375"),
    (Fraction(1, 10**6), "0.000001"),
    (Fraction(1, 100), "0.01"),
])
def test_format_minimal_digits(value, text):
    assert format_weight(value) == text


def test_format_falls_back_to_fraction_text():
    assert format_weight(Fraction(1, 3)) == "1/3"
    # negative values too; the decimal path would print -1/2 as "-1.5"
    assert format_weight(Fraction(-1, 2)) == "-1/2"


@pytest.mark.parametrize("value,expected", [
    (Fraction(1, 3), False),
    (Fraction(1, 7), False),
    (Fraction(1, 8), True),
    (Fraction(1, 64), True),
    (Fraction(1, 10**6), True),
    (Fraction(0), True),
])
def test_is_decimal_exact(value, expected):
    assert is_decimal_exact(value) is expected


@given(st.integers(min_value=0, max_value=10**6))
def test_roundtrip_over_the_full_grid(numerator):
    value = Fraction(numerator, 10**6)
    assert parse_weight(format_weight(value)) == value


@given(st.text(alphabet="01.", min_size=1, max_size=8))
def test_parser_never_crashes_on_digit_dot_soup(text):
    try:
        value = parse_weight(text)
    except (MalformedWeightError, OverPrecisionError, OutOfRangeError):
        return
    assert 0 <= value <= 1
