"""Reference computations coded apart from the program.

Exact symbol values use the Racah single sum (SU(2)) and the defining
OSP(1|2) single sum with integer-part brackets, evaluated by nested
(Horner) summation over the ratio of consecutive terms in plain integers.
The program instead adds one Fraction per term and builds its prefactor
from prime exponents, so the two share no arithmetic.  Values are compared
through their squares by integer cross-multiplication, with the sign
compared apart.  Geometry uses the Gram matrix of the edge vectors and the
Binet-Cauchy identity for the dihedral angles, where the program embeds
the tetrahedron in coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction

from perfbench import inputs


def alternating_sum(w, m, c0: int, c1: int) -> tuple[int, int]:
    """(num, den) of sum_t (-1)^t t! (c0 + c1 t) / [prod (t-w_i)! prod (m_j-t)!].

    t runs over max(w)..min(m).  Consecutive terms differ by the factor
    -(t+1) prod (m_j - t) / prod (t+1 - w_i), so the sum nests as
    T_lo [f(lo) + r_lo (f(lo+1) + r_lo+1 (...))] and is evaluated from the
    inside out on integers.  den > 0; the pair is not reduced.
    """
    lo, hi = max(w), min(m)
    if lo > hi:
        return 0, 1
    num, den = c0 + c1 * hi, 1
    for t in range(hi - 1, lo - 1, -1):
        a = t + 1
        for mj in m:
            a *= mj - t
        b = 1
        for wi in w:
            b *= t + 1 - wi
        num, den = (c0 + c1 * t) * b * den - a * num, b * den
    head_num = math.factorial(lo)
    head_den = 1
    for wi in w:
        head_den *= math.factorial(lo - wi)
    for mj in m:
        head_den *= math.factorial(mj - lo)
    sign = -1 if lo % 2 else 1
    return sign * head_num * num, head_den * den


def _fact_ratio(nums, dens) -> tuple[int, int]:
    top = bottom = 1
    for n in nums:
        top *= math.factorial(n)
    for n in dens:
        bottom *= math.factorial(n)
    return top, bottom


def racah(d) -> tuple[tuple[int, int], tuple[int, int]]:
    """SU(2) {j1 j2 j3; J1 J2 J3} as (sum, radicand), value = sum * sqrt(radicand).

    Racah's form: the product of four triangle coefficients
    Delta(abc)^2 = (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)! times the
    alternating sum with (t+1)! over the triads and column pairs.
    """
    nums, dens = [], []
    for a, b, c in inputs.faces(d):
        nums += [(a + b - c) // 2, (a - b + c) // 2, (-a + b + c) // 2]
        dens.append((a + b + c) // 2 + 1)
    w = [v // 2 for v in inputs.triads(d)]
    m = [p // 2 for p in inputs.quads(d)]
    # (t+1)! = t! (t+1)
    return alternating_sum(w, m, 1, 1), _fact_ratio(nums, dens)


def _shared_slot(i: int, j: int) -> int:
    """Spin slot of the edge shared by triads i and j."""
    (shared,) = set(inputs.FACE_SLOTS[i]) & set(inputs.FACE_SLOTS[j])
    return shared


def super_sixj(d) -> tuple[tuple[int, int], tuple[int, int]]:
    """OSP(1|2) super-6j as (sum, radicand), value = sum * sqrt(radicand).

    Defining single sum: t runs over floor(v_i+1/2) <= t <= floor(p_j+1/2);
    terms (-1)^t t! M(t) / [prod (t - floor(v_i+1/2))! prod (floor(p_j+1/2) - t)!];
    prefactor prod floor(p_j - v_i)! / prod floor(v_i + 1/2)!; frontal sign
    (-1)^(4 sum j J).  The monomial M is 1 (alpha),
    -t (2 j* + 1) + (pbar + 1/2)(pbar' + 1/2) - v v' (beta, j* the spin shared
    by the two half-integer triads, pbar, pbar' the half-integer quadrangle
    sums, v, v' the integer triads) or -t + 2 sum jJ + sum j + 1/2 (gamma).
    Doubled spins keep everything integral; M is carried as 4 M.
    """
    V, P = inputs.triads(d), inputs.quads(d)
    par = inputs.parity(d)
    if par == "alpha":
        c0, c1 = 4, 0
    elif par == "beta":
        half = [i for i, v in enumerate(V) if v % 2]
        ints = [v for v in V if v % 2 == 0]
        half_p = [p for p in P if p % 2]
        if len(half_p) != 2:
            raise ValueError(f"beta sextuple {d} without two half-integer quadrangles")
        jstar2 = d[_shared_slot(*half)]
        c0 = (half_p[0] + 1) * (half_p[1] + 1) - ints[0] * ints[1]
        c1 = -4 * (jstar2 + 1)
    else:
        jj = d[0] * d[3] + d[1] * d[4] + d[2] * d[5]
        c0 = 2 * jj + 2 * sum(d) + 2
        c1 = -4
    w = [(v + 1) // 2 for v in V]
    m = [(p + 1) // 2 for p in P]
    num, den = alternating_sum(w, m, c0, c1)
    if (d[0] * d[3] + d[1] * d[4] + d[2] * d[5]) % 2:
        num = -num
    rad = _fact_ratio([(p - v) // 2 for p in P for v in V], w)
    return (num, 4 * den), rad


def reference(kind: str, d):
    return racah(d) if kind == "su2" else super_sixj(d)


def same_value(coeff, radicand, ref) -> bool:
    """coeff * sqrt(radicand) == ref exactly; all parts are (num, den) int pairs."""
    (cn, cd), (rn, rd) = coeff, radicand
    (sn, sd), (qn, qd) = ref
    if cd <= 0 or rd <= 0 or rn < 0 or sd <= 0 or qd <= 0:
        return False
    if sn == 0 or cn == 0 or rn == 0:
        return sn == 0 and (cn == 0 or rn == 0)
    if (cn > 0) != (sn > 0):
        return False
    return cn * cn * rn * sd * sd * qd == sn * sn * qn * cd * cd * rd


def scaled_float_error(mantissa: float, exp2: int, coeff, radicand) -> float:
    """Relative error of mantissa * 2**exp2 against coeff * sqrt(radicand) (both non-zero)."""
    (cn, cd), (rn, rd) = coeff, radicand
    if (mantissa > 0) != (cn > 0):
        return math.inf
    approx_sq = Fraction(mantissa) ** 2 * Fraction(2) ** (2 * exp2)
    ratio = approx_sq * Fraction(cd * cd * rd, cn * cn * rn)
    return abs(math.sqrt(float(ratio)) - 1.0)


def volume(d) -> float:
    return math.sqrt(inputs.gram512(d) / (512 * 36))


def exterior_dihedrals(d) -> tuple[float, ...]:
    """Exterior dihedral angle along each edge, in spin-slot order.

    For edge uw with the other vertices r, t and origin u:
    cos(theta_int) ~ (b x c).(b x e) = (b.b)(c.e) - (b.e)(c.b) and
    sin(theta_int) ~ |b| 6V, with b, c, e the edges from u to w, r, t.
    """
    det512 = inputs.gram512(d)
    out = [0.0] * 6
    for (u, w), slot in inputs.EDGE_SLOT.items():
        r, t = (x for x in range(4) if x not in (u, w))

        def g(p, q, u=u):
            return inputs.gram8(d, u, p, q)

        cos_part = g(w, w) * g(r, t) - g(w, t) * g(r, w)
        sin_part = math.sqrt(g(w, w) * det512)
        out[slot] = math.pi - math.atan2(sin_part, cos_part)
    return tuple(out)
