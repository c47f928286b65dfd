"""Scalar helpers: exact rationals, complex numbers, JSON round-tripping.

Hyperplane coefficients and marked points are exact: `to_rational` turns
them into ints or Fractions.  Exponents and points may also be complex;
mixed arithmetic (Fraction with complex) degrades to complex automatically,
which is what every caller in this package relies on.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from numbers import Rational, Real
from typing import Union

Scalar = Union[int, Fraction, float, complex]

# A value of modulus below this at an inexact point counts as zero: the
# point lies on the arrangement (vanishes).
ON_ARRANGEMENT_TOL = 1e-12


def is_exact(x) -> bool:
    """True if x is an exact rational (int or Fraction)."""
    return isinstance(x, Rational)


def vanishes(x):
    """x == 0 when x is exact, else |x| < ON_ARRANGEMENT_TOL.  Elementwise
    on a numpy array, exact when its dtype is object."""
    if is_exact(x) or getattr(x, "dtype", None) == object:
        return x == 0
    return abs(x) < ON_ARRANGEMENT_TOL


def to_rational(x):
    """x as an exact rational.  Ints and Fractions are returned unchanged; a
    float, or a complex number with zero imaginary part, becomes its exact
    binary value.  Raises ValueError on anything non-real or non-finite."""
    if isinstance(x, Rational):
        return x
    if isinstance(x, complex) and x.imag == 0:
        x = x.real
    if isinstance(x, Real) and cmath.isfinite(x):
        return Fraction(float(x))
    raise ValueError(f"not a finite real number: {x!r}")


def parse_scalar(obj) -> Scalar:
    """Parse a JSON scalar: "p/q" string, integer, float, or [re, im] pair.
    NaN and infinities are rejected."""
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except ZeroDivisionError as exc:
            raise ValueError(f"not a finite number: {obj!r}") from exc
    if isinstance(obj, bool):
        raise ValueError(f"not a scalar: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        value = obj
    elif isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = obj
        value = complex(float(re), float(im))
    else:
        raise ValueError(f"cannot parse scalar from {obj!r}")
    if not cmath.isfinite(value):
        raise ValueError(f"not a finite number: {obj!r}")
    return value


def to_int(obj) -> int:
    """A JSON integer field as an int: 2, 2.0 and "2" give 2.  A value that
    is not integral, such as 1.5, raises ValueError rather than being
    truncated."""
    x = parse_scalar(obj)
    if isinstance(x, complex) or x != int(x):
        raise ValueError(f"not an integer: {obj!r}")
    return int(x)


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
