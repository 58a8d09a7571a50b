"""Independent reference implementations used to cross-check the evaluators.

Everything here is deliberately written from scratch against the defining
formulas, using plain Fractions and math.factorial: no triangle-data helpers,
no prime-exponent machinery, no code shared with the package evaluators
beyond the ExactSymbol value type used to compare canonical results.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from sixj import ExactSymbol, HalfInt, SpinSextuple


def _fact(n) -> int:
    n = Fraction(n)
    if n.denominator != 1 or n < 0:
        raise ValueError(f"factorial argument {n} is not a non-negative integer")
    return math.factorial(int(n))


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _triangle_ok(a, b, c) -> bool:
    return a + b >= c and b + c >= a and c + a >= b


def _sums(a, b, c, d, e, f):
    """Triangle sums and quadrangle sums from the six spins."""
    tri = (a + b + c, d + b + f, d + e + c, a + e + f)
    quad = (b + e + c + f, c + f + a + d, a + d + b + e)
    return tri, quad


def racah_sixj(spins) -> ExactSymbol:
    """SU(2) 6j via the product of four triangle coefficients.

    delta(abc)^2 = (-a+b+c)!(a-b+c)!(a+b-c)! / (a+b+c+1)! and the alternating
    single sum with (z+1)!; the radicand is multiplied out and canonicalised
    by the constructor's trial division, a different route from the
    evaluator's prime-exponent bookkeeping (tests/test_exact.py checks that
    route against squarefree_split below).
    """
    a, b, c, d, e, f = (Fraction(x) for x in spins)
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    delta_sq = Fraction(1)
    for x, y, z in triads:
        if not _triangle_ok(x, y, z) or (x + y + z).denominator != 1:
            raise ValueError(f"su2-inadmissible triad {(x, y, z)}")
        delta_sq *= Fraction(
            _fact(-x + y + z) * _fact(x - y + z) * _fact(x + y - z),
            _fact(x + y + z + 1),
        )
    tri, quad = _sums(a, b, c, d, e, f)
    zmin = int(max(tri))
    zmax = int(min(quad))
    total = Fraction(0)
    for z in range(zmin, zmax + 1):
        den = 1
        for t in tri:
            den *= _fact(z - t)
        for q in quad:
            den *= _fact(q - z)
        total += Fraction((-1) ** z * _fact(z + 1), den)
    return ExactSymbol(total, delta_sq)


def parts(x: ExactSymbol) -> tuple[Fraction, Fraction]:
    """The stored (coeff, radicand) of x, which fix its printed bytes.

    ``==`` compares values, and sqrt(1/2) equals sqrt(2)/2, so a check that two
    routes store the same canonical form compares these instead.
    """
    return x.coeff, x.radicand


def sixj_zero_spin(a, b, c) -> ExactSymbol:
    """Closed form {a b c; 0 c b} = (-1)^(a+b+c) / sqrt((2b+1)(2c+1))."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    sign = (-1) ** int(a + b + c)
    return ExactSymbol(Fraction(sign), Fraction(1, (2 * b + 1) * (2 * c + 1)))


def super_sixj_direct(spins) -> ExactSymbol:
    """OSP(1|2) supersymmetric 6j by literal term-by-term summation.

    Parity from the count of integer triangle sums; prefactor from the
    per-parity explicit factorial products; monomial from super_monomial;
    frontal sign from (-1)^(4 sum j J) via Fractions.
    """
    a, b, c, d, e, f = (Fraction(x) for x in spins)
    tri, quad = _sums(a, b, c, d, e, f)
    for q in quad:
        for t in tri:
            if q - t < 0:
                raise ValueError("osp12-inadmissible sextuple")
    n_int = sum(1 for t in tri if t.denominator == 1)
    if n_int not in (0, 2, 4):
        raise ValueError("impossible parity")

    four_sum = 4 * (a * d + b * e + c * f)
    if four_sum.denominator != 1:
        raise ValueError("4 sum jJ must be an integer")
    sign = (-1) ** int(four_sum)

    if n_int == 4:
        prefactor = Fraction(1)
        for q in quad:
            for t in tri:
                prefactor *= _fact(q - t)
        for t in tri:
            prefactor /= _fact(t)
    elif n_int == 0:
        prefactor = Fraction(1)
        for q in quad:
            for t in tri:
                prefactor *= _fact(q - t - Fraction(1, 2))
        for t in tri:
            prefactor /= _fact(t + Fraction(1, 2))
    else:
        ints = [t for t in tri if t.denominator == 1]
        halves = [t for t in tri if t.denominator != 1]
        int_quads = [q for q in quad if q.denominator == 1]
        half_quads = [q for q in quad if q.denominator != 1]
        if len(int_quads) != 1 or len(half_quads) != 2:
            raise ValueError("beta parity must have exactly one integer quadrangle")
        v, vp = ints
        vb, vbp = halves
        p = int_quads[0]
        pb, pbp = half_quads
        prefactor = (
            _fact(p - v) * _fact(p - vp)
            * _fact(p - vb - Fraction(1, 2)) * _fact(p - vbp - Fraction(1, 2))
            * _fact(pb - vb) * _fact(pb - vbp)
            * _fact(pb - v - Fraction(1, 2)) * _fact(pb - vp - Fraction(1, 2))
            * _fact(pbp - vb) * _fact(pbp - vbp)
            * _fact(pbp - v - Fraction(1, 2)) * _fact(pbp - vp - Fraction(1, 2))
        )
        prefactor = Fraction(
            prefactor,
            _fact(v) * _fact(vp)
            * _fact(vb + Fraction(1, 2)) * _fact(vbp + Fraction(1, 2)),
        )

    tmin = max(_floor(t + Fraction(1, 2)) for t in tri)
    tmax = min(_floor(q + Fraction(1, 2)) for q in quad)
    total = Fraction(0)
    c0, c1 = super_monomial(spins)
    for t in range(tmin, tmax + 1):
        den = 1
        for vv in tri:
            den *= _fact(t - _floor(vv + Fraction(1, 2)))
        for qq in quad:
            den *= _fact(_floor(qq + Fraction(1, 2)) - t)
        total += Fraction((-1) ** t * _fact(t), den) * (c0 + c1 * t)
    return ExactSymbol(sign * total, prefactor)


def super_monomial(spins) -> tuple[Fraction, Fraction]:
    """(constant, linear) coefficients of the degree <= 1 weight of t! in the sum.

    The defining per-parity forms: alpha 1; gamma -t + 2 sum j J + (sum of
    the six spins) + 1/2; beta -t (2 jstar + 1) + (pbar + 1/2)(pbar' + 1/2)
    - v v', with v, v' the integer triangle sums, pbar, pbar' the
    half-integer quadrangle sums and 2 jstar = vbar + vbar' - p.
    """
    a, b, c, d, e, f = (Fraction(x) for x in spins)
    tri, quad = _sums(a, b, c, d, e, f)
    ints = [t for t in tri if t.denominator == 1]
    if len(ints) == 4:
        return Fraction(1), Fraction(0)
    if not ints:
        return 2 * (a * d + b * e + c * f) + (a + b + c + d + e + f) + Fraction(1, 2), Fraction(-1)
    if len(ints) != 2:
        raise ValueError("impossible parity")
    v, vp = ints
    vb, vbp = [t for t in tri if t.denominator != 1]
    (p,) = [q for q in quad if q.denominator == 1]
    pb, pbp = [q for q in quad if q.denominator != 1]
    two_jstar = vb + vbp - p
    return (pb + Fraction(1, 2)) * (pbp + Fraction(1, 2)) - v * vp, -(two_jstar + 1)


def super_sixj_alpha_direct(spins) -> ExactSymbol:
    """Alpha-specialised supersymmetric evaluation: no integer-part brackets.

    Valid only when every triangle sum is an integer; used to confirm the
    generic bracket path collapses to it for even rescalings.
    """
    a, b, c, d, e, f = (Fraction(x) for x in spins)
    tri, quad = _sums(a, b, c, d, e, f)
    if any(t.denominator != 1 for t in tri):
        raise ValueError("alpha-specialised path requires integer triangle sums")
    prefactor = Fraction(1)
    for q in quad:
        for t in tri:
            prefactor *= _fact(q - t)
    for t in tri:
        prefactor /= _fact(t)
    four_sum = 4 * (a * d + b * e + c * f)
    sign = (-1) ** int(four_sum)
    total = Fraction(0)
    for z in range(int(max(tri)), int(min(quad)) + 1):
        den = 1
        for t in tri:
            den *= _fact(z - t)
        for q in quad:
            den *= _fact(q - z)
        total += Fraction((-1) ** z * _fact(z), den)
    return ExactSymbol(sign * total, prefactor)


def frontal_sign_closed_form(spins) -> int:
    """Odd-k frontal sign from the paper's per-parity closed forms.

    alpha (four integer triangle sums): +1; gamma (none): (-1)^(1 + sum p);
    beta (two): (-1)^(v + v' - p), with v, v' the integer triangle sums and
    p the one integer quadrangle sum.
    """
    tri, quad = _sums(*(Fraction(x) for x in spins))
    ints = [t for t in tri if t.denominator == 1]
    if len(ints) == 4:
        return 1
    if not ints:
        exponent = 1 + sum(quad)
    elif len(ints) == 2:
        (p,) = [q for q in quad if q.denominator == 1]
        exponent = ints[0] + ints[1] - p
    else:
        raise ValueError("impossible parity")
    if exponent.denominator != 1:
        raise ValueError(f"sign exponent {exponent} is not an integer")
    return (-1) ** int(exponent)


def cayley_menger_det(spins) -> Fraction:
    """Cayley-Menger determinant of the tetrahedron with edge lengths = spins.

    The textbook 5x5 bordered matrix of squared distances, vertices A, B, C, D
    with AB = j3, AC = j2, AD = J1, BC = j1, BD = J2, CD = J3, expanded by
    Fraction Gaussian elimination with row pivoting.
    """
    j1, j2, j3, J1, J2, J3 = (Fraction(x) for x in spins)
    ab, ac, ad, bc, bd, cd = j3**2, j2**2, J1**2, j1**2, J2**2, J3**2
    m = [
        [Fraction(0), Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(0), ab, ac, ad],
        [Fraction(1), ab, Fraction(0), bc, bd],
        [Fraction(1), ac, bc, Fraction(0), cd],
        [Fraction(1), ad, bd, cd, Fraction(0)],
    ]
    det = Fraction(1)
    for col in range(5):
        pivot = next((r for r in range(col, 5) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, 5):
            f = m[r][col] / m[col][col]
            for c in range(col, 5):
                m[r][c] -= f * m[col][c]
    return det


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


def primes_by_trial_division(n: int) -> list[int]:
    """Primes <= n, each candidate tested by trial division up to its square root."""
    return [m for m in range(2, n + 1) if all(m % q for q in range(2, math.isqrt(m) + 1))]


# ---------------------------------------------------------------------------
# random admissible sextuple generation


def random_sextuple(rng: random.Random, max_twice: int = 12) -> SpinSextuple:
    return SpinSextuple(*(HalfInt(rng.randint(0, max_twice)) for _ in range(6)))


def random_admissible(
    rng: random.Random,
    parity: str | None = None,
    n: int = 1,
    max_twice: int = 12,
    require_euclidean: bool = False,
    min_twice: int = 0,
) -> list[SpinSextuple]:
    """Rejection-sample n admissible osp12 sextuples, optionally of one parity."""
    from sixj.errors import NonEuclideanError
    from sixj.geometry import tet_from_spins
    from sixj.triangles import classify_parity, is_admissible, triangle_sums

    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 500_000:
            raise RuntimeError("rejection sampling budget exceeded")
        s = SpinSextuple(*(HalfInt(rng.randint(min_twice, max_twice)) for _ in range(6)))
        if not is_admissible(s, "osp12"):
            continue
        if parity is not None and classify_parity(triangle_sums(s)).value != parity:
            continue
        if require_euclidean:
            try:
                tet_from_spins(s)
            except NonEuclideanError:
                continue
        out.append(s)
    return out
