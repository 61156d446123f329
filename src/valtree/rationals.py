"""Exact rational scalars extended with a formal +infinity.

Finite values are plain ``fractions.Fraction`` objects; the shared ``INF``
sentinel adjoins +infinity.  ``INF`` compares strictly greater than every
Fraction and absorbs addition.  Multiplication is deliberately kept off the
operator protocol: order-weight arithmetic needs the convention
``0 * inf == 0``, which lives in :func:`scale` so that accidental float-style
arithmetic fails loudly instead of silently picking a convention.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union


class Infinity:
    """Formal +infinity.  A single shared instance ``INF`` exists."""

    __slots__ = ()
    _instance: "Infinity | None" = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("valtree.INF")

    # INF is the top of the order.
    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __add__(self, other: object) -> "Infinity":
        return self

    __radd__ = __add__

    def __sub__(self, other: object) -> "Infinity":
        if other is self:
            raise ArithmeticError("inf - inf is undefined")
        return self

    def __repr__(self) -> str:
        return "inf"


INF = Infinity()

ExtRat = Union[Fraction, Infinity]

ZERO = Fraction(0)
ONE = Fraction(1)


def is_inf(value: ExtRat) -> bool:
    return value is INF


def scale(factor: Union[int, Fraction], value: ExtRat) -> ExtRat:
    """``factor * value`` with the convention ``0 * inf == 0``.

    Negative factors never make sense for order weights and are rejected.
    """
    if factor < 0:
        raise ValueError("scale factor must be nonnegative")
    if factor == 0:
        return ZERO
    if value is INF:
        return INF
    return Fraction(factor) * value


# The one spelling of a rational, on every Python: ASCII digits, an optional
# leading "-" and an optional "/q" with q > 0.  Fraction's own parser also
# takes "+", "_", decimals, exponents and non-ASCII digits, and which of them
# depends on the Python version.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rat(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (ASCII digits, optional leading -, q > 0),
    blanks around allowed; any other text is a ValueError."""
    m = _RATIONAL.fullmatch(text.strip())
    if m is not None:
        p, q = m.groups()
        if q is None:
            return Fraction(int(p))
        q = int(q)
        if q:
            return Fraction(int(p), q)
    raise ValueError(f"expected p or p/q in ASCII digits with q > 0, got {text!r}")


def format_rat(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_extrat(text: str) -> ExtRat:
    """``parse_rat``, or ``INF`` for "inf" in any case."""
    if text.strip().lower() == "inf":
        return INF
    return parse_rat(text)


def format_extrat(value: ExtRat) -> str:
    if value is INF:
        return "inf"
    return format_rat(value)
