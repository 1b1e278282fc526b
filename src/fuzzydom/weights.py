"""Exact membership degrees.

Every sigma, mu, alpha and derived quantity in this package is a
fractions.Fraction. Graph inputs enter through parse_weight, which only
accepts decimal literals in [0, 1] with at most six fractional digits, so
all graph weights have denominators dividing 10**6.

Comparisons stay exact without Fraction arithmetic: core multiplies every
weight of a graph by the lcm of their denominators, which makes each one an
integer, and compares those (validity checks and the "mu equals min sigma"
effectiveness test); domination scales sigma the same way for the cover
search. Multiplying by a positive common multiple changes no order and no
equality, and it holds for any Fraction, not only the 10**-6 grid.
"""

from __future__ import annotations

import re
from fractions import Fraction

MAX_FRACTIONAL_DIGITS = 6

_DECIMAL_RE = re.compile(r"(?P<int>0|[1-9][0-9]*)?(?:\.(?P<frac>[0-9]+))?\Z")


class WeightError(ValueError):
    """A weight literal was rejected."""


class MalformedWeightError(WeightError):
    """Not a plain decimal literal."""


class OverPrecisionError(WeightError):
    """More than MAX_FRACTIONAL_DIGITS fractional digits."""


class OutOfRangeError(WeightError):
    """Parsed value falls outside [0, 1]."""


def parse_weight(text: str) -> Fraction:
    """Parse a decimal literal like "0.15" into an exact Fraction in [0, 1].

    Accepted forms: "0", "1", "0.15", "1.0", ".5". Signs, exponents, a
    leading zero before another digit and stray characters are malformed;
    a well-formed literal above 1, such as "2" or "1.5", is out of range.
    """
    if not isinstance(text, str):
        raise MalformedWeightError(f"weight must be a string, got {type(text).__name__}")
    m = _DECIMAL_RE.match(text.strip())
    if m is None or (m.group("int") is None and m.group("frac") is None):
        raise MalformedWeightError(f"not a decimal weight literal: {text!r}")
    frac = m.group("frac") or ""
    if len(frac) > MAX_FRACTIONAL_DIGITS:
        raise OverPrecisionError(
            f"{text!r} has {len(frac)} fractional digits (max {MAX_FRACTIONAL_DIGITS})")
    whole = m.group("int") or "0"
    if len(whole) > 1:  # at least 10; int() of a long digit string can fail
        raise OutOfRangeError(f"{text!r} is outside [0, 1]")
    value = Fraction(int(whole)) + (Fraction(int(frac), 10 ** len(frac)) if frac else Fraction(0))
    if not 0 <= value <= 1:
        raise OutOfRangeError(f"{text!r} is outside [0, 1]")
    return value


def is_decimal_exact(value: Fraction) -> bool:
    """True when value has a finite decimal expansion of at most six digits."""
    return (10 ** MAX_FRACTIONAL_DIGITS) % value.denominator == 0


def format_weight(value: Fraction) -> str:
    """Render an exact rational for humans and files.

    Values with a short finite decimal expansion (denominator a divisor of
    10**6, which covers everything parse_weight can produce) come out as the
    minimal decimal literal, e.g. 3/10 -> "0.3" and 1 -> "1". Anything else,
    such as LP optima with denominator 3, comes out as "num/den".
    """
    if value < 0:
        return f"{value.numerator}/{value.denominator}"
    if not is_decimal_exact(value):
        return f"{value.numerator}/{value.denominator}"
    scaled = value.numerator * (10 ** MAX_FRACTIONAL_DIGITS) // value.denominator
    whole, frac = divmod(scaled, 10 ** MAX_FRACTIONAL_DIGITS)
    if frac == 0:
        return str(whole)
    digits = str(frac).rjust(MAX_FRACTIONAL_DIGITS, "0").rstrip("0")
    return f"{whole}.{digits}"
