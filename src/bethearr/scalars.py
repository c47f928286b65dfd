"""Scalar helpers: exact rationals, complex numbers, JSON round-tripping.

Exact mode uses ``fractions.Fraction``; anything else is coerced to complex.
Mixed arithmetic (Fraction with complex) degrades to complex automatically,
which is what every caller in this package relies on.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Union

Scalar = Union[int, Fraction, float, complex]


def is_exact(x) -> bool:
    """True if x is an exact rational (int or Fraction)."""
    return isinstance(x, Rational)


def all_exact(values) -> bool:
    return all(is_exact(x) for x in values)


def parse_scalar(obj) -> Scalar:
    """Parse a JSON scalar: "p/q" string, integer, float, or [re, im] pair."""
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, bool):
        raise ValueError(f"not a scalar: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = obj
        return complex(float(re), float(im))
    raise ValueError(f"cannot parse scalar from {obj!r}")


def format_scalar(x):
    """Serialize a scalar: rationals as "p/q" strings, others as [re, im]."""
    if isinstance(x, Rational):
        return f"{x.numerator}/{x.denominator}"
    z = complex(x)
    return [z.real, z.imag]


def scalar_abs(x) -> float:
    if isinstance(x, Rational):
        return abs(float(x))
    return abs(complex(x))
