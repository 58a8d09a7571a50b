"""Exact values of the form coeff * sqrt(radicand) and extended-range floats.

Symbol evaluations produce a rational sum times the square root of a rational
prefactor.  ``ExactSymbol`` keeps both parts exactly, normalised so that the
radicand carries no square factor: equality is then plain componentwise
comparison.  ``ScaledFloat`` is a sign/mantissa/exponent triple that survives
conversions whose intermediate numerators and denominators overflow any
native float by thousands of orders of magnitude.

``ExactSymbol.from_prime_exponents`` reduces the evaluators' int ratio once;
its ``den`` is required, because every caller holds an unreduced int ratio.
``primes_up_to`` serves every call from one module-level sieve that grows on
demand and never covers more than twice the largest n requested.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .record import Record


def factorial(n: int) -> int:
    """Exact n! for non-negative integer n."""
    if n < 0:
        raise ValueError(f"factorial of negative value {n}")
    return math.factorial(n)


# (limit, the primes below limit), replaced as one tuple so that no reader
# pairs a limit with other primes.  A request for n >= limit re-sieves to
# max(n + 1, 2 * limit) <= 2n, so limit stays within twice the largest n.
_sieve: tuple[int, list[int]] = (2, [])


def primes_up_to(n: int) -> list[int]:
    """Primes <= n, in increasing order, as a new list."""
    global _sieve
    limit, primes = _sieve
    if n >= limit:
        limit = max(n + 1, 2 * limit)
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for i in range(2, math.isqrt(limit - 1) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        primes = [i for i, ok in enumerate(sieve) if ok]
        _sieve = (limit, primes)
    return primes[:bisect.bisect_right(primes, n)]


def squarefree_split(n: int) -> tuple[int, int]:
    """Split n >= 1 as s*s*f with f square-free, via trial division.

    Intended for products of factorials, whose prime factors are all small;
    a radicand containing a large prime square would fall back to a slow scan.
    """
    if n < 1:
        raise ValueError("squarefree_split expects a positive integer")
    s = f = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    if n > 1:
        f *= n
    return s, f


class ExactSymbol(Record):
    """Exact value coeff * sqrt(radicand), always stored in canonical form.

    Canonical means: radicand >= 0 with square-free numerator and square-free
    denominator (square parts absorbed into coeff), and radicand == 1 whenever
    coeff == 0.  The constructor canonicalises, so equality of two instances
    is componentwise equality of (coeff, radicand).
    """

    __slots__ = ("coeff", "radicand")
    coeff: Fraction
    radicand: Fraction

    def __post_init__(self):
        coeff, radicand = self.coeff, self.radicand
        if radicand < 0:
            raise ValueError("radicand must be non-negative")
        if coeff == 0 or radicand == 0:
            coeff, radicand = Fraction(0), Fraction(1)
        else:
            sn, fn = squarefree_split(radicand.numerator)
            sd, fd = squarefree_split(radicand.denominator)
            coeff = coeff * Fraction(sn, sd)
            radicand = Fraction(fn, fd)
        object.__setattr__(self, "coeff", Fraction(coeff))
        object.__setattr__(self, "radicand", radicand)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactSymbol":
        return cls(Fraction(0), Fraction(1))

    @classmethod
    def from_prime_exponents(cls, num: int, exponents: dict[int, int], den: int) -> "ExactSymbol":
        """Build (num/den) * sqrt(prod p**e) from a prime-exponent map.

        The square part prod p**(e//2) moves into the coefficient without ever
        multiplying out the radicand.  Each odd-exponent prime enters the
        radicand once, so it is square-free with coprime parts already: the
        value is built canonical, without __post_init__'s trial division.
        num/den is an int ratio, unreduced, reduced once together with the
        square part.
        """
        mult_num = mult_den = 1
        rad_num = rad_den = 1
        for p, e in exponents.items():
            if e > 0:
                mult_num *= p ** (e >> 1)
                if e & 1:
                    rad_num *= p
            elif e < 0:
                mult_den *= p ** (-e >> 1)
                if e & 1:
                    rad_den *= p
        q = Fraction(num * mult_num, den * mult_den)
        if not q:
            return cls.zero()
        value = object.__new__(cls)
        object.__setattr__(value, "coeff", q)
        object.__setattr__(value, "radicand", Fraction(rad_num, rad_den))
        return value

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    @property
    def sign(self) -> int:
        return (self.coeff > 0) - (self.coeff < 0)

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def to_scaled(self) -> "ScaledFloat":
        return exact_to_scaled(self)

    def __float__(self) -> float:
        return self.to_scaled().to_float()

    def __neg__(self) -> "ExactSymbol":
        return ExactSymbol(-self.coeff, self.radicand)

    def __str__(self) -> str:
        return f"{self.coeff} * sqrt({self.radicand})"


class ScaledFloat(Record):
    """Sign-carrying mantissa in [1,2) (or 0.0) times 2**exp2.

    Represents magnitudes with |log2| far beyond the native float range while
    staying losslessly convertible to a (mantissa, exp2) CSV pair.
    """

    __slots__ = ("mantissa", "exp2")
    mantissa: float
    exp2: int

    def __post_init__(self):
        m = self.mantissa
        if m != 0.0 and not (1.0 <= abs(m) < 2.0):
            raise ValueError(f"mantissa {m} outside [1,2)")
        if m == 0.0 and self.exp2 != 0:
            raise ValueError("zero mantissa requires zero exponent")

    @classmethod
    def zero(cls) -> "ScaledFloat":
        return cls(0.0, 0)

    @classmethod
    def from_float(cls, x: float) -> "ScaledFloat":
        if x == 0.0:
            return cls.zero()
        m, e = math.frexp(x)  # |m| in [0.5, 1)
        return cls(m * 2.0, e - 1)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "ScaledFloat":
        if q == 0:
            return cls.zero()
        sign = 1 if q > 0 else -1
        m, e = _ratio_to_mantissa(abs(q.numerator), q.denominator)
        return cls(sign * m, e)

    def to_float(self) -> float:
        """Nearest native float; saturates to +-inf outside the double range."""
        try:
            return math.ldexp(self.mantissa, self.exp2)
        except OverflowError:
            return math.inf if self.mantissa > 0 else -math.inf

    def abs_log2(self) -> float:
        """log2 of the magnitude; -inf for zero.  Exact even when to_float saturates."""
        if self.mantissa == 0.0:
            return -math.inf
        return self.exp2 + math.log2(abs(self.mantissa))

    def abs_ln(self) -> float:
        return self.abs_log2() * math.log(2.0)

    @property
    def sign(self) -> int:
        return (self.mantissa > 0) - (self.mantissa < 0)

    def __float__(self) -> float:
        return self.to_float()


def _ratio_to_mantissa(n: int, d: int) -> tuple[float, int]:
    """Round n/d (both positive ints) to 53 bits: (mantissa in [1,2), exp2)."""
    e = n.bit_length() - d.bit_length()
    # scale so the integer quotient carries 55-56 significant bits
    s = 55 - e
    if s >= 0:
        q, rem = divmod(n << s, d)
    else:
        q, rem = divmod(n, d << -s)
    bits = q.bit_length()
    drop = bits - 53
    keep = q >> drop
    low = q & ((1 << drop) - 1)
    half = 1 << (drop - 1)
    if low > half or (low == half and (rem > 0 or keep & 1)):
        keep += 1
        if keep.bit_length() > 53:  # rounded up to a power of two
            keep >>= 1
            drop += 1
    return keep / float(1 << 52), drop - s + 52


_SQRT_GUARD_BITS = 64


def exact_to_scaled(value: ExactSymbol) -> ScaledFloat:
    """Correctly rounded ScaledFloat of coeff * sqrt(radicand) (within 2 ulp)."""
    if value.is_zero:
        return ScaledFloat.zero()
    coeff, radicand = value.coeff, value.radicand
    sign = 1 if coeff > 0 else -1
    cn, cd = abs(coeff.numerator), coeff.denominator
    rn, rd = radicand.numerator, radicand.denominator
    if rn == 1 and rd == 1:
        m, e = _ratio_to_mantissa(cn, cd)
        return ScaledFloat(sign * m, e)
    # sqrt(rn/rd) = sqrt(rn*rd)/rd, computed with guard bits so the final
    # rational rounding dominates the error budget
    root = math.isqrt((rn * rd) << (2 * _SQRT_GUARD_BITS))
    m, e = _ratio_to_mantissa(cn * root, (cd * rd) << _SQRT_GUARD_BITS)
    return ScaledFloat(sign * m, e)
