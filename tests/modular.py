"""Exact values checked modulo three large primes, independently of the package's kernel.

A symbol is sign * S * sqrt(R): S is the alternating single sum and R a ratio
of factorials.  Modulo a prime p larger than every factorial argument, S and R
are sums and products over tables of n! and 1/n! mod p, taken term by term.
The prime exponents e_q of R come from Legendre's formula,
v_q(n!) = sum_i floor(n / q**i).  Two checks tie a stored
``ExactSymbol(coeff, radicand)`` to the formula:

- the radicand is the product of the primes q with e_q odd, those with e_q < 0
  in its denominator;
- coeff * sqrt(radicand * R) == sign * R * S (mod p).  radicand * R has even
  exponents only, so its root is an exact, positive product of prime powers,
  and the congruence pins the sign as well as the magnitude.

The formulas are those of ``tests/oracles.py``: Racah's triangle coefficients
for SU(2), and for OSP(1|2) the integer-part brackets, the parity monomial and
the frontal sign (-1)^(4 sum j J).  Nothing here calls the package's summation
kernel or its prime-exponent code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from oracles import _floor, _sums, primes_by_trial_division, super_monomial
from sixj import ExactSymbol

# primes between 2**61 and 2**63 (tests/test_modular.py checks each), far above
# any factorial argument: n! is a unit mod p for every n < p
PRIMES = (2**61 + 15, 2**62 + 135, 2**63 - 25)


class SingleSum(NamedTuple):
    """sign * sum_t (-1)**t (t + shift)! (c0 + c1 t) / [prod (t - a)! prod (b - t)!]
    * sqrt(prod num! / prod den!), t over max(lo) <= t <= min(hi)."""

    sign: int
    shift: int
    c0: Fraction
    c1: Fraction
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    num: tuple[int, ...]
    den: tuple[int, ...]


def _ints(values) -> tuple[int, ...]:
    out = tuple(map(Fraction, values))
    if any(x.denominator != 1 or x < 0 for x in out):
        raise ValueError(f"factorial arguments {out} are not all non-negative integers")
    return tuple(int(x) for x in out)


def su2(spins) -> SingleSum:
    """The SU(2) 6j symbol: Racah's sum with (t + 1)!, under the product of the
    four squared triangle coefficients (-x+y+z)! (x-y+z)! (x+y-z)! / (x+y+z+1)!."""
    a, b, c, d, e, f = map(Fraction, spins)
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    num = _ints(n for x, y, z in triads for n in (-x + y + z, x - y + z, x + y - z))
    tri, quad = _sums(a, b, c, d, e, f)
    return SingleSum(1, 1, Fraction(1), Fraction(0), _ints(tri), _ints(quad), num, _ints(t + 1 for t in tri))


def osp12(spins) -> SingleSum:
    """The OSP(1|2) super 6j symbol of any parity, as ``oracles.super_sixj_direct``
    writes it: bracketed sum limits, t! times the parity monomial, the per-parity
    prefactor and the frontal sign."""
    a, b, c, d, e, f = map(Fraction, spins)
    tri, quad = _sums(a, b, c, d, e, f)
    half = Fraction(1, 2)
    ints = [t for t in tri if t.denominator == 1]
    if len(ints) == 4:  # alpha
        num, den = [q - t for q in quad for t in tri], tri
    elif not ints:  # gamma
        num, den = [q - t - half for q in quad for t in tri], [t + half for t in tri]
    else:  # beta
        v, vp = ints
        vb, vbp = [t for t in tri if t.denominator != 1]
        (p,) = [q for q in quad if q.denominator == 1]
        pb, pbp = [q for q in quad if q.denominator != 1]
        num = [p - v, p - vp, p - vb - half, p - vbp - half]
        num += [x - y for x in (pb, pbp) for y in (vb, vbp)]
        num += [x - y - half for x in (pb, pbp) for y in (v, vp)]
        den = [v, vp, vb + half, vbp + half]
    if any(q < t for q in quad for t in tri):
        raise ValueError("osp12-inadmissible sextuple")
    four_jj = 4 * (a * d + b * e + c * f)
    c0, c1 = super_monomial(spins)
    return SingleSum((-1) ** int(four_jj), 0, c0, c1, tuple(_floor(t + half) for t in tri),
                     tuple(_floor(q + half) for q in quad), _ints(num), _ints(den))


def legendre(n: int, q: int) -> int:
    """The exponent of the prime q in n!."""
    e = 0
    while n:
        n //= q
        e += n
    return e


def prefactor_exponents(x: SingleSum) -> dict[int, int]:
    """The prime exponents of R = prod num! / prod den!, zeros left out."""
    exps = {}
    for q in primes_by_trial_division(max(x.num + x.den, default=0)):
        e = sum(legendre(n, q) for n in x.num) - sum(legendre(n, q) for n in x.den)
        if e:
            exps[q] = e
    return exps


def _mod(r: Fraction, p: int) -> int:
    return r.numerator * pow(r.denominator, -1, p) % p


def residues(x: SingleSum, p: int) -> tuple[int, int]:
    """(sign * S mod p, R mod p), term by term over tables of n! and 1/n! mod p."""
    lo, hi = max(x.lo), min(x.hi)
    n = max((hi + x.shift, *x.num, *x.den, *(hi - a for a in x.lo), *(b - lo for b in x.hi)))
    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i % p
    inv = [1] * (n + 1)
    inv[n] = pow(fact[n], -1, p)
    for i in range(n, 0, -1):
        inv[i - 1] = inv[i] * i % p
    c0, c1 = _mod(x.c0, p), _mod(x.c1, p)
    s = 0
    for t in range(lo, hi + 1):
        term = fact[t + x.shift] * (c0 + c1 * t) % p
        for a in x.lo:
            term = term * inv[t - a] % p
        for b in x.hi:
            term = term * inv[b - t] % p
        s = s - term if t % 2 else s + term
    r = 1
    for m in x.num:
        r = r * fact[m] % p
    for m in x.den:
        r = r * inv[m] % p
    return x.sign * s % p, r


def check(value: ExactSymbol, x: SingleSum) -> None:
    """Raise AssertionError unless value is the symbol x modulo every prime of PRIMES."""
    exps = prefactor_exponents(x)
    if value.coeff:
        odd = [q for q, e in exps.items() if e % 2]
        want = Fraction(math.prod(q for q in odd if exps[q] > 0), math.prod(q for q in odd if exps[q] < 0))
        assert value.radicand == want, "the radicand is not the product of R's odd-exponent primes"
    else:
        assert value.radicand == 1, "a zero is stored with radicand 1"
    # sqrt(radicand * R) = prod q**h, h = e_q / 2 rounded away from zero
    half = {q: (e + 1) // 2 if e > 0 else -((1 - e) // 2) for q, e in exps.items()}
    for p in PRIMES:
        s, r = residues(x, p)
        root = 1
        for q, h in half.items():
            root = root * pow(q, h, p) % p  # a negative h takes the inverse mod p
        assert (_mod(value.coeff, p) * root - r * s) % p == 0, f"coeff sqrt(radicand R) != sign R S mod {p}"

