"""Exact half-integer values stored as doubled integers.

All spins, triangle sums and quadrangle sums are half-integers.  The program
computes on their doubled values, plain ints, so every comparison and sum is
exact and parity classification never touches floating point.  ``HalfInt``
is the value type of the public spin views, without arithmetic of its own;
``_twice_of``, ``_parse_twice`` and ``_half_text`` read and write the
doubled ints directly.
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

    # -- conversions -------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

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
        num, den = value.as_integer_ratio()  # one call, cheaper than numerator and denominator
        if den <= 2:
            return 2 * num // den
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
