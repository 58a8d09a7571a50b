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
ints; its factorial head enters as exponent vectors, with the prefactor's.

Both evaluators run one pipeline on the doubled spins d = (2j1, ..., 2J3),
read once from the sextuple: doubled triangle data and admissibility from
the ``triangles`` core, the sum's range from ``_brackets``, read once, the
parity monomial scaled by 4 to integers, the frontal sign from sum d_i d_(i+3)
and one expression, ``_exponents``, reading the rows of ``exact``'s packed n!
vectors at the prefactor's and the head's factorial arguments by subscript.
No HalfInt or Fraction is built before the sum.
"""

from __future__ import annotations

from . import exact
from .exact import ExactSymbol
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


def _brackets(v, p, k: int = 1) -> tuple[list[int], list[int]]:
    """The kernel's w and m, floor(k v_i/2 + 1/2) and floor(k p_j/2 + 1/2), for k
    times the sextuple of doubled sums (v, p); k v_i/2 and k p_j/2 when integers, as in SU(2)."""
    (v0, v1, v2, v3), (p0, p1, p2) = v, p
    return ([(k * v0 + 1) // 2, (k * v1 + 1) // 2, (k * v2 + 1) // 2, (k * v3 + 1) // 2],
            [(k * p0 + 1) // 2, (k * p1 + 1) // 2, (k * p2 + 1) // 2])


# Estimated cost (terms + 1000) n log2 n, n - 1 bounding every factorial
# argument: the kernel's ints reach about n log2 n bits, and the sieve and the
# Legendre sums past the table take time and memory in proportion to n.  At
# the bound, all-ones SU(2) at k = 64051 takes about 63 s on one core; one
# term takes 2 s or less and under 75 MB peak RSS ({0 0 0; N N N} and
# {N N 0; N N 0} at N = 6243755: 70 MB).  Memory limits few terms, and the
# weight sets that limit.
MAX_EXACT_COST = 3 * 10**11


def _bound(w: list[int], m: list[int], lo: int, hi: int) -> int:
    """n, where n - 1 bounds the head's, both prefactors' and the loop's factors."""
    return max(hi, max(m) - min(w), lo + 1) + 1


def _check_cost(w: list[int], m: list[int], lo: int, hi: int, spent: int = 0) -> int:
    """spent plus the kernel's estimated cost on (w, m) over lo..hi; ValueError past MAX_EXACT_COST."""
    n = _bound(w, m, lo, hi)
    spent += (hi - lo + 1001) * n * n.bit_length()
    if spent > MAX_EXACT_COST:
        raise ValueError("spins are too large for exact evaluation")
    return spent


def _alternating_sum(w: list[int], m: list[int], c0: int, c1: int,
                     lo: int | None = None, hi: int | None = None) -> int:
    """Signed numerator of sum_t (-1)^t t! (c0 + c1 t) / [prod (t-w_i)! prod (m_j-t)!].

    t runs over the integers max(w) = lo <= t <= hi = min(m), with four w
    and three m; a caller that holds lo and hi passes them.  An empty range
    gives 0.  The sum is nested from the top term down over the term ratio
    -(t+1) prod (m_j-t) / prod (t+1-w_i), so the loop multiplies plain ints
    only.  Its denominator prod (hi-w_i)! / (lo-w_i)! and the head lo! /
    [prod (lo-w_i)! prod (m_j-lo)!] leave the factor lo! / [prod (hi-w_i)!
    prod (m_j-lo)!], which _symbol applies.
    Raises ValueError, before any work, past the bound of _check_cost.
    """
    lo, hi = (max(w), min(m)) if lo is None else (lo, hi)
    if lo > hi:
        return 0
    _check_cost(w, m, lo, hi)
    w0, w1, w2, w3 = w
    m0, m1, m2 = m
    num, den = c0 + c1 * hi, 1
    for t in range(hi - 1, lo - 1, -1):
        u = t + 1
        b = (u - w0) * (u - w1) * (u - w2) * (u - w3)
        num = (c0 + c1 * t) * b * den - u * (m0 - t) * (m1 - t) * (m2 - t) * num
        den *= b
    return -num if lo % 2 else num


def _exponents(rows, v, p, lift: int, w: list[int], m: list[int], lo: int, hi: int) -> tuple[int, int]:
    """(rad, coef), rows[a] packing the exponents of a!: the prefactor's rows (p_j - v_i)//2 minus
    (v_i + lift)//2, lift 2 for SU(2); the head's row lo minus rows hi - w_i and m_j - lo."""
    (v0, v1, v2, v3), (p0, p1, p2), (w0, w1, w2, w3), (m0, m1, m2) = v, p, w, m
    rad = (rows[(p0 - v0) // 2] + rows[(p0 - v1) // 2] + rows[(p0 - v2) // 2] + rows[(p0 - v3) // 2]
           + rows[(p1 - v0) // 2] + rows[(p1 - v1) // 2] + rows[(p1 - v2) // 2] + rows[(p1 - v3) // 2]
           + rows[(p2 - v0) // 2] + rows[(p2 - v1) // 2] + rows[(p2 - v2) // 2] + rows[(p2 - v3) // 2]
           - rows[(v0 + lift) // 2] - rows[(v1 + lift) // 2] - rows[(v2 + lift) // 2] - rows[(v3 + lift) // 2])
    coef = (rows[lo] - rows[hi - w0] - rows[hi - w1] - rows[hi - w2] - rows[hi - w3]
            - rows[m0 - lo] - rows[m1 - lo] - rows[m2 - lo])
    return rad, coef


def _symbol(num: int, v, p, lift: int, w: list[int], m: list[int], lo: int, hi: int, den: int) -> ExactSymbol:
    """num/den times the factorials _exponents reads: from the table, or past it from exact._rows."""
    rows, primes = exact._facts
    try:
        rad, coef = _exponents(rows, v, p, lift, w, m, lo, hi)
    except IndexError:  # an argument past the table
        rows, primes, bits = exact._rows(_bound(w, m, lo, hi))
        return exact._from_packed(num, primes, *_exponents(rows, v, p, lift, w, m, lo, hi), den, bits)
    return exact._from_packed(num, primes, rad, coef, den)


def sixj_exact(s: SpinSextuple) -> ExactSymbol:
    """Exact SU(2) 6j symbol as a canonical (coeff, radicand) pair."""
    v, p = _sums(s.doubled())
    _check(v, p, "su2")
    w, m = _brackets(v, p)
    lo, hi = max(w), min(m)
    num = _alternating_sum(w, m, 1, 1, lo, hi)
    return _symbol(num, v, p, 2, w, m, lo, hi, 1)


def sixj_super_exact(s: SpinSextuple) -> ExactSymbol:
    """Exact OSP(1|2) supersymmetric 6j symbol of any parity.

    Implements the single-sum form with integer-part brackets literally:
    t runs over the integers with floor(v_i + 1/2) <= t <= floor(p_j + 1/2)
    for every i, j.  The range is never empty: _check gives p_j >= v_i, and
    then floor(p_j + 1/2) >= floor(v_i + 1/2).
    """
    d = s.doubled()
    v, p = _sums(d)
    parity = _check(v, p, "osp12")
    beta = _beta_split(d, v, p) if parity is Parity.BETA else None
    w, m = _brackets(v, p)
    lo, hi = max(w), min(m)
    # the sum runs with 4x the monomial, whose coefficients are then integers
    num = _alternating_sum(w, m, *_monomial4(parity, d, beta), lo, hi)
    return _symbol(-num if _jj(d) % 2 else num, v, p, 1, w, m, lo, hi, 4)
