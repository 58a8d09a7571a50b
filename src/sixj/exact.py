"""Exact values of the form coeff * sqrt(radicand) and extended-range floats.

Symbol evaluations produce a rational sum times the square root of a rational
prefactor.  ``ExactSymbol`` keeps both parts exactly, the radicand square-free
as ``from_prime_exponents`` leaves it, and compares by value.  ``ScaledFloat``
is a sign/mantissa/exponent triple that survives conversions whose
intermediate numerators and denominators overflow any native float by
thousands of orders of magnitude.

A value built from factorials keeps their prime exponents as two signed sums
of packed rows, the radicand's and the coefficient's; row a packs those of a!.
``_rows`` gives a table of 16-bit fields up to ``_FACT_CAP`` and Legendre
rows of 32-bit fields past it, and ``_from_packed`` unpacks the two sums for
``from_prime_exponents``, the one builder.  The sieve and the table grow on
demand, replaced as a whole.  The builder reduces the coefficient with one
gcd and writes each result's Fractions and record through their slots, as
``fractions`` builds its own results: no constructor runs per value.
"""

from __future__ import annotations

import bisect
import math
import sys
from array import array
from fractions import Fraction

from .record import Record


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


# Row a packs the exponent of the i-th prime in a! into the field at bit 16 i (table)
# or 32 i (Legendre).  As v_p(a!) <= a - 1, a sum of 15 rows minus 15 leaves every
# field inside half its range, 15 * 2047 < 2**15 up to _FACT_CAP and 15 * 12487510 <
# 2**31 below n = 12487512, the cost bound's largest.  _facts is (rows a! for a < len,
# the primes below len), grown like _sieve to at most _FACT_CAP + 1 rows (0.8 MB).
_FACT_CAP = 2048
_facts: tuple[list[int], list[int]] = ([0], [])


class _LegendreRows(dict):
    """Rows past the table, row a from Legendre's v_p(a!) = sum a // p**i over the primes p <= a,
    computed on its first read: the 24 reads of an evaluation often repeat a row."""

    def __missing__(self, a: int) -> int:
        exps = array("i")  # 32-bit fields
        for p in primes_up_to(a):
            e, q = 0, a
            while q >= p:
                q //= p
                e += q
            exps.append(e)
        row = self[a] = int.from_bytes(exps, sys.byteorder)
        return row


def _rows(n: int) -> tuple:
    """(rows, primes, bits): rows[a] packs the exponents in a! of primes in bits-wide fields
    for 0 <= a < n; the table, grown to n rows, up to _FACT_CAP, and Legendre rows past it."""
    global _facts
    rows, primes = _facts
    if n <= len(rows):
        return rows, primes, 16
    if n > _FACT_CAP + 1:
        return _LegendreRows(), primes_up_to(n - 1), 32
    size = min(max(n, 2 * len(rows)), _FACT_CAP + 1)
    primes = primes_up_to(size - 1)
    rows = [0] * size  # the fields of j, then summed into those of j!
    for i, p in enumerate(primes):
        field, q = 1 << 16 * i, p
        while q < size:
            for j in range(q, size, q):
                rows[j] += field
            q *= p
    for j in range(2, size):
        rows[j] += rows[j - 1]
    _facts = (rows, primes)  # replaced as a whole, like _sieve
    return rows, primes, 16


def _from_packed(num: int, primes: list[int], rad: int, coef: int, den: int, bits: int = 16) -> "ExactSymbol":
    """(num/den) * prod p**c * sqrt(prod p**e), e and c the signed bits-wide fields of the
    packed sums rad and coef; the table's fields are 16 bits wide."""
    # f fields reach the highest non-zero one, as |e| < 2**(bits - 1); bias is 2**(bits - 1) in 2f fields
    f = max(rad.bit_length(), coef.bit_length()) // bits + 1
    bias = (1 << 2 * bits * f) // ((1 << bits) - 1) << bits - 1
    # every biased field is e + 2**(bits - 1) > 0, and xor with the bias leaves e mod 2**bits
    packed = ((rad + (coef << bits * f) + bias) ^ bias).to_bytes(bits * f // 4, sys.byteorder)
    fields = memoryview(packed).cast("h" if bits == 16 else "i")
    return ExactSymbol.from_prime_exponents(num, primes, fields[:f], fields[f:], den)


def factorial_symbol(num: int, rad_nums: list[int], rad_dens: list[int],
                     coef_nums: list[int], coef_dens: list[int], den: int) -> "ExactSymbol":
    """(num/den) * prod coef_nums! / prod coef_dens! * sqrt(prod rad_nums! / prod rad_dens!), from
    non-negative ints, at most 15 per list: the evaluators' sums over lists, by _rows and _from_packed."""
    rows, primes, bits = _rows(max(rad_nums + rad_dens + coef_nums + coef_dens, default=0) + 1)
    rad = sum(map(rows.__getitem__, rad_nums)) - sum(map(rows.__getitem__, rad_dens))
    coef = sum(map(rows.__getitem__, coef_nums)) - sum(map(rows.__getitem__, coef_dens))
    return _from_packed(num, primes, rad, coef, den, bits)


def _fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d) for ints n and d >= 1 with gcd(n, d) == 1, its two slots written
    as fractions writes those of its own results (Fraction._from_coprime_ints from 3.12):
    such a pair is what Fraction(n, d) would store, so the result is that Fraction."""
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


_ZERO, _ONE = Fraction(0), Fraction(1)  # shared by every zero and every radicand 1
_TRIAL_BOUND = 2**20  # B, where ExactSymbol's trial division of a radicand stops


def _factor(n: int) -> dict[int, int]:
    """n >= 1 as {key: exponent} over square-free, pairwise coprime keys: primes up
    to B, then the cofactor c, with no prime factor up to B, so a prime below B**2,
    and below B**3 a prime, two primes or a square.  ValueError past B**3."""
    exps, d, e = {}, 2, 1
    while d * d <= n:
        if d > _TRIAL_BOUND:
            if n >= _TRIAL_BOUND**3:
                raise ValueError(f"radicand factor over {_TRIAL_BOUND}**3 has no prime factor <= {_TRIAL_BOUND}")
            if math.isqrt(n) ** 2 == n:
                n, e = math.isqrt(n), 2
            break
        while n % d == 0:
            n //= d
            exps[d] = exps.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if n > 1:
        exps[n] = e
    return exps


class ExactSymbol(Record):
    """Exact value coeff * sqrt(radicand), always stored in canonical form.

    Canonical means: radicand >= 0 with square-free numerator and square-free
    denominator (square parts absorbed into coeff), and radicand == 1 whenever
    coeff == 0.  A prime may still sit under the root on either side, as in
    sqrt(1/2) and sqrt(2)/2, so ``==`` and ``hash`` compare by value.
    """

    __slots__ = ("coeff", "radicand")
    coeff: Fraction
    radicand: Fraction

    def __post_init__(self):
        coeff, radicand = self.coeff, Fraction(self.radicand)
        if radicand < 0:
            raise ValueError("radicand must be non-negative")
        if coeff == 0 or radicand == 0:
            coeff, radicand = Fraction(0), Fraction(1)
        else:  # by class name: tests run this on a dataclass twin
            exps = _factor(radicand.numerator)
            exps.update((p, -e) for p, e in _factor(radicand.denominator).items())
            root = ExactSymbol.from_prime_exponents(1, exps, exps.values(), [0] * len(exps), 1)
            coeff, radicand = Fraction(coeff) * root.coeff, root.radicand
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", radicand)

    def _values(self) -> tuple:
        # sqrt(n/d) = sqrt(n*d)/d, and n*d is square-free: one pair per value
        d = self.radicand.denominator
        return self.coeff / d, self.radicand.numerator * d

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactSymbol":
        return cls._stored(_ZERO, _ONE)

    @classmethod
    def from_prime_exponents(cls, num: int, primes, rad, coef, den: int) -> "ExactSymbol":
        """Build (num/den) * prod p**c * sqrt(prod p**e) over zip(primes, rad, coef).

        The primes need only be square-free and pairwise coprime.  The radicand's
        square part joins the coefficient's exponents, and each odd-exponent
        prime enters the radicand once: the value is canonical.  The unreduced
        int ratio num/den is reduced once, with the coefficient's primes, by one
        gcd; the radicand's two sides share no prime, so they are coprime.
        """
        mult_num = mult_den = 1
        rad_num = rad_den = 1
        for p, e, c in zip(primes, rad, coef):
            if e & 1:  # p under the root once, on the side of e's sign
                if e > 0:
                    rad_num *= p
                else:
                    rad_den *= p
                    e += 1
            c += e >> 1
            if c > 0:
                mult_num *= p**c
            elif c < 0:
                mult_den *= p**-c
        n, d = num * mult_num, den * mult_den
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        if not n:
            return cls.zero()
        g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)  # the sign on the numerator, as in Fraction
        radicand = _ONE if rad_num == rad_den == 1 else _fraction(rad_num, rad_den)
        return cls._stored(_fraction(n // g, d // g), radicand)

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

    @classmethod
    def _stored(cls, coeff, radicand):  # a canonical pair as it stands: no factoring
        value = object.__new__(cls)
        _set_coeff(value, coeff)
        _set_radicand(value, radicand)
        return value

    def __reduce__(self):
        return self._stored, (self.coeff, self.radicand)

    def __neg__(self) -> "ExactSymbol":
        return ExactSymbol._stored(-self.coeff, self.radicand)

    def __str__(self) -> str:
        return f"{self.coeff} * sqrt({self.radicand})"


_set_coeff, _set_radicand = ExactSymbol.coeff.__set__, ExactSymbol.radicand.__set__


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


def _ratio_to_float(n: int, d: int, message: str) -> float:
    """n/d by CPython's int true division, correctly rounded (half to even) for
    ints of any size; ValueError(message) when the quotient has no float value."""
    try:
        return n / d
    except OverflowError:
        raise ValueError(message) from None


def _ratio_to_mantissa(n: int, d: int) -> tuple[float, int]:
    """Round n/d (both positive ints) to 53 bits, half to even: (mantissa in [1,2), exp2)."""
    s = d.bit_length() - n.bit_length() + 1  # n/d * 2**s lies in (1, 4)
    m, e = math.frexp((n << s) / d if s >= 0 else n / (d << -s))
    return 2 * m, e - 1 - s


_SQRT_GUARD_BITS = 64


def exact_to_scaled(value: ExactSymbol) -> ScaledFloat:
    """ScaledFloat of coeff * sqrt(radicand), rounded once to 53 bits, half to even.

    A rational value (radicand 1) is correctly rounded.  Otherwise the root
    is first truncated to 64 fractional bits (a relative error below
    2**-64), and the result lies within 2 ulp of the exact value.
    """
    if value.is_zero:
        return ScaledFloat.zero()
    coeff, radicand = value.coeff, value.radicand
    sign = 1 if coeff > 0 else -1
    cn, cd = abs(coeff.numerator), coeff.denominator
    rn, rd = radicand.numerator, radicand.denominator
    # sqrt(rn/rd) = sqrt(rn*rd)/rd, computed with guard bits so the final
    # rational rounding dominates the error budget
    root = math.isqrt((rn * rd) << (2 * _SQRT_GUARD_BITS))
    m, e = _ratio_to_mantissa(cn * root, (cd * rd) << _SQRT_GUARD_BITS)
    return ScaledFloat(sign * m, e)
