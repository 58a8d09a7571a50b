"""Exact evaluation of standard SU(2) 6j and supersymmetric OSP(1|2) symbols.

The standard symbol is the single sum

    sqrt(R) * sum_t (-1)^t (t+1)! / [prod_i (t-v_i)! prod_j (p_j-t)!]

with R = prod(p_j-v_i)! / prod(v_i+1)! and t running from max(v_i) to
min(p_j).  The supersymmetric symbol replaces (t+1)! by t! times a
parity-dependent monomial, applies integer-part brackets to the factorial
arguments, uses a parity prefactor built from the same brackets and carries
a global frontal sign (-1)^(4 sum j*J).  One generic code path covers all
three parities; the per-parity forms fall out of the brackets.

Since (t+1)! = t! (t+1), both sums are one kernel with monomial 1 + t for
SU(2).  It nests the sum from the top term down over the term ratio on plain
ints; the caller reduces the result once, as a single Fraction.

Both evaluators run one pipeline on the doubled spins d = (2j1, ..., 2J3),
read once from the sextuple: doubled triangle data and admissibility from
the ``triangles`` core, the parity monomial scaled by 4 to integers, the
frontal sign from sum d_i d_(i+3) and the prefactor arguments (p_j - v_i)//2
and (v_i + 1)//2.  No HalfInt or Fraction is built before the sum.
"""

from __future__ import annotations

import math
import warnings

from .errors import EmptySumWarning, ShiftViolation
from .exact import ExactSymbol, primes_up_to
from .halfint import HalfInt
from .triangles import Parity, SpinSextuple, _beta_split, _check, _jj, _sums


def _monomial4(parity: Parity, d, beta) -> tuple[int, int]:
    """4 x (constant, linear) coefficients of the weight multiplying t! in the sum.

    alpha: 1
    beta:  -t (2 jstar + 1) + (pbar + 1/2)(pbar' + 1/2) - v v'
    gamma: -t + 2 sum j*J + (sum of all six spins) + 1/2

    Integers by construction on the doubled spins d and, for beta, the
    doubled split from _beta_split.
    """
    if parity is Parity.ALPHA:
        return 4, 0
    if parity is Parity.BETA:
        v, v_prime, _, _, _, pbar, pbar_prime, jstar, *_ = beta
        return (pbar + 1) * (pbar_prime + 1) - v * v_prime, -4 * (jstar + 1)
    return 2 * _jj(d) + 2 * sum(d) + 2, -4


def _super_prefactor_args(v, p) -> tuple[list[int], list[int]]:
    """Numerator and denominator factorial arguments of the parity prefactor.

    From doubled sums (v, p).  Numerator: floor(p_j - v_i) over the twelve
    pairs; denominator: floor(v_i + 1/2) over the four triangles.  Every
    argument must be a non-negative integer, otherwise the parity data is
    inconsistent.
    """
    if min(p) < max(v):
        d = next(pj - vi for pj in p for vi in v if pj < vi)
        raise ShiftViolation(f"prefactor argument p - v = {HalfInt(d)} is negative")
    return [(pj - vi) // 2 for pj in p for vi in v], [(vi + 1) // 2 for vi in v]


# Estimated cost (terms + 3000) n log2 n, n - 1 the largest factorial argument:
# the kernel's ints reach about n log2 n bits, and the factorials and prime
# exponents weigh about 3000 terms.  At the bound, all-ones SU(2) at k = 51200
# and {N N 0; N N 0} at N = 757000 took 56 s and 59 s (one core, shared x86 VM).
MAX_EXACT_COST = 2 * 10**11


def _check_cost(terms: int, n: int) -> None:
    """ValueError when the estimated cost of a kernel call passes MAX_EXACT_COST."""
    if (terms + 3000) * n * n.bit_length() > MAX_EXACT_COST:
        raise ValueError("spins are too large for exact evaluation")


def _alternating_sum(w: list[int], m: list[int], c0: int, c1: int) -> tuple[int, int]:
    """Unreduced (num, den) of sum_t (-1)^t t! (c0 + c1 t) / [prod (t-w_i)! prod (m_j-t)!].

    t runs over the integers max(w) = lo <= t <= hi = min(m), with four w
    and three m; an empty range gives (0, 1).  The sum is nested from the top
    term down over the term ratio -(t+1) prod (m_j-t) / prod (t+1-w_i), so
    the loop multiplies plain ints only.  The head lo! / [prod (lo-w_i)!
    prod (m_j-lo)!] and the sign (-1)^lo enter once, at the end.  Raises
    ValueError, before any work, past the cost bound of _check_cost.
    """
    lo, hi = max(w), min(m)
    if lo > hi:
        return 0, 1
    _check_cost(hi - lo + 1, max(m) + 1)
    w0, w1, w2, w3 = w
    m0, m1, m2 = m
    num, den = c0 + c1 * hi, 1
    for t in range(hi - 1, lo - 1, -1):
        u = t + 1
        b = (u - w0) * (u - w1) * (u - w2) * (u - w3)
        num = (c0 + c1 * t) * b * den - u * (m0 - t) * (m1 - t) * (m2 - t) * num
        den *= b
    num *= math.factorial(lo)
    for x in w:
        den *= math.factorial(lo - x)
    for x in m:
        den *= math.factorial(x - lo)
    return (-num if lo % 2 else num), den


def _prefactor_symbol(nums: list[int], dens: list[int], num: int, den: int) -> ExactSymbol:
    """(num/den) * sqrt(prod nums! / prod dens!) built from prime-exponent vectors.

    num/den is the kernel's unreduced int ratio, reduced once at the end.

    The radicand is never multiplied out, so square extraction stays cheap
    however large the factorial arguments grow under spin rescaling.  The
    exponent of p in n! is Legendre's sum of n // p**i, accumulated inline.
    """
    top = max(nums + dens, default=0)
    exps: dict[int, int] = {}
    for p in primes_up_to(top):
        e = 0
        for n in nums:
            while n >= p:
                n //= p
                e += n
        for n in dens:
            while n >= p:
                n //= p
                e -= n
        if e:
            exps[p] = e
    return ExactSymbol.from_prime_exponents(num, exps, den)


def sixj_exact(s: SpinSextuple) -> ExactSymbol:
    """Exact SU(2) 6j symbol as a canonical (coeff, radicand) pair."""
    v, p = _sums(s.doubled())
    _check(v, p, "su2")
    w = [x // 2 for x in v]
    m = [x // 2 for x in p]
    num, den = _alternating_sum(w, m, 1, 1)
    if num == 0:
        return ExactSymbol.zero()
    nums = [mj - wi for mj in m for wi in w]
    dens = [wi + 1 for wi in w]
    return _prefactor_symbol(nums, dens, num, den)


def sixj_super_exact(s: SpinSextuple) -> ExactSymbol:
    """Exact OSP(1|2) supersymmetric 6j symbol of any parity.

    Implements the single-sum form with integer-part brackets literally:
    t runs over the integers with floor(v_i + 1/2) <= t <= floor(p_j + 1/2)
    for every i, j.  The range is never empty for admissible data; if a
    hand-built input produces one, the exact value is zero and an
    EmptySumWarning is emitted.
    """
    d = s.doubled()
    v, p = _sums(d)
    parity = _check(v, p, "osp12")
    beta = _beta_split(d, v, p) if parity is Parity.BETA else None
    w = [(x + 1) // 2 for x in v]
    m = [(x + 1) // 2 for x in p]
    if max(w) > min(m):
        warnings.warn("empty summation range; exact value is 0", EmptySumWarning)
        return ExactSymbol.zero()
    # the sum runs with 4x the monomial, whose coefficients are then integers
    num, den = _alternating_sum(w, m, *_monomial4(parity, d, beta))
    if num == 0:
        return ExactSymbol.zero()
    if _jj(d) % 2:
        num = -num
    return _prefactor_symbol(*_super_prefactor_args(v, p), num, 4 * den)
