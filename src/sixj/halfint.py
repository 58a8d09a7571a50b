"""Exact half-integer values stored as doubled integers.

All spins, triangle sums and quadrangle sums are half-integers.  Storing the
doubled value keeps every comparison, addition and subtraction in exact
integer arithmetic, so parity classification never touches floating point.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .record import Record


@functools.total_ordering
class HalfInt(Record):
    """A half-integer n/2 represented by its doubled value ``twice``; ordered by it."""

    __slots__ = ("twice",)
    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError(f"doubled value must be int, got {type(self.twice).__name__}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Build from an int, Fraction or HalfInt that is an exact multiple of 1/2."""
        return value if isinstance(value, HalfInt) else cls(_twice_of(value))

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "2", "3/2" or "1.5" style text into an exact half-integer.

        Decimal forms are accepted only with fractional part .0 or .5.
        """
        return cls(_parse_twice(text))

    # -- predicates and conversions ---------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def floor_plus_half(self) -> int:
        """Integer part of (self + 1/2); equals self when integer, self + 1/2 otherwise."""
        return (self.twice + 1) // 2

    def __float__(self) -> float:
        return self.twice / 2.0

    def __int__(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __str__(self) -> str:
        return _half_text(self.twice)

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"

    # -- exact arithmetic --------------------------------------------------

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __mul__(self, k: int) -> "HalfInt":
        if not isinstance(k, int):
            return NotImplemented
        return HalfInt(self.twice * k)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.twice != 0

    def __lt__(self, other):
        return self.twice < other.twice if other.__class__ is self.__class__ else NotImplemented


def parse_halfint(text: str) -> HalfInt:
    """Module-level alias for :meth:`HalfInt.parse`."""
    return HalfInt.parse(text)


def _twice_of(value) -> int:
    """``HalfInt.of(value).twice``, without the HalfInt; SpinSextuple reads spins by it."""
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction):
        den = value.denominator
        if den == 1:
            return 2 * value.numerator
        if den == 2:
            return value.numerator
        raise ValueError(f"{value} is not a half-integer")
    if isinstance(value, HalfInt):
        return value.twice
    raise TypeError(f"cannot build HalfInt from {type(value).__name__}")


def _parse_twice(text: str) -> int:
    """``HalfInt.parse(text).twice``, without the HalfInt."""
    s = text.strip()
    if not s:
        raise ValueError("empty half-integer literal")
    if "/" in s:
        num, _, den = s.partition("/")
        if den.strip() != "2":
            raise ValueError(f"half-integer denominator must be 2: {text!r}")
        return int(num)
    if "." in s:
        whole, _, frac = s.partition(".")
        frac = frac.rstrip("0")
        if frac == "5":
            base = int(whole) if whole not in ("", "-", "+") else 0
            sign = -1 if s.startswith("-") else 1
            return 2 * base + sign
        if frac == "":
            return 2 * int(whole)
        raise ValueError(f"not a half-integer: {text!r}")
    return 2 * int(s)


def _half_text(twice: int) -> str:
    """The text of the half-integer twice/2: "3" for 6, "3/2" for 3."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"
