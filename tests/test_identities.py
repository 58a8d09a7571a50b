"""Identities of the exact SU(2) symbols, checked exactly.

Orthogonality (Varshalovich et al. 1988, ch. 9):

    sum_x (2x+1)(2j3+1) {j1 j2 x; j4 j5 j3} {j1 j2 x; j4 j5 j3'} = delta(j3, j3')

for every j3, j3' that close both triangles (j1 j5 j3) and (j4 j2 j3).  Each
product c1 sqrt(r1) c2 sqrt(r2) (2x+1)(2j3+1) is formed as the canonical
``ExactSymbol(c1 c2 w, r1 r2)``, and the coefficients are summed per
radicand: the sum is exact, and no radicand but 1 may keep a non-zero total.
The identity shares no formula with the evaluator's single sum.

The Racah sum rule (same chapter):

    sum_x (-1)^(p+q+x) (2x+1) {a b x; c d p} {c d x; b a q} = {a c q; b d p}

is summed in the same way, per radicand of the products, and the totals
must equal the right side's canonical (coeff, radicand), or vanish with it.

The Biedenharn-Elliott identity (same chapter; Edmonds 1957, eq. 6.2.12):

    sum_x (-1)^(S+x) (2x+1) {a b x; c d p} {c d x; e f q} {e f x; b a r}
        = {p q r; e a d} {p q r; f b c},    S = a+b+c+d+e+f+p+q+r,

groups the products of three symbols by their square-free radicand in the
same way; the right side is the canonical product of two.  This form was
checked against ``sympy.physics.wigner.wigner_6j`` on the same tuples before
it was coded here.
"""

import itertools
from collections import defaultdict
from fractions import Fraction

from sixj import ExactSymbol, SpinSextuple, sixj_exact
from sixj.triangles import is_admissible

MAX_TWICE = 6  # every given spin <= 3; x runs past it, up to j1 + j2
MAX_TWICE_RACAH = 3  # every given spin <= 3/2: 4096 tuples, x up to a + b
MAX_TWICE_BE = 3  # every given spin <= 3/2: 262144 tuples, x up to a + b


def _triangle(a: int, b: int, c: int) -> bool:
    """Doubled spins a, b, c close a triangle with an integer perimeter."""
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0


def _memoised_sixj():
    values = {}

    def six(doubled):
        """The 6j symbol on doubled spins, or None where it is not admissible."""
        if doubled not in values:
            s = SpinSextuple.of(*(Fraction(x, 2) for x in doubled))
            values[doubled] = sixj_exact(s) if is_admissible(s, "su2") else None
        return values[doubled]

    return six


def test_su2_orthogonality_on_every_spin_up_to_3():
    six = _memoised_sixj()
    pairs = 0
    for j1, j2, j4, j5 in itertools.product(range(MAX_TWICE + 1), repeat=4):
        j3s = [j3 for j3 in range(MAX_TWICE + 1) if _triangle(j1, j5, j3) and _triangle(j4, j2, j3)]
        for j3, j3p in itertools.product(j3s, repeat=2):
            by_radicand = defaultdict(Fraction)
            for x in range(abs(j1 - j2), j1 + j2 + 1, 2):
                a, b = six((j1, j2, x, j4, j5, j3)), six((j1, j2, x, j4, j5, j3p))
                if a is None or b is None:
                    continue
                term = ExactSymbol(a.coeff * b.coeff * (x + 1) * (j3 + 1), a.radicand * b.radicand)
                by_radicand[term.radicand] += term.coeff
            total = {r: q for r, q in by_radicand.items() if q}
            assert total == ({Fraction(1): Fraction(1)} if j3 == j3p else {}), (j1, j2, j4, j5, j3, j3p)
            pairs += 1
    assert pairs == 3518


def test_racah_sum_rule_on_every_spin_up_to_3_2():
    six = _memoised_sixj()
    nonzero = 0
    for a, b, c, d, p, q in itertools.product(range(MAX_TWICE_RACAH + 1), repeat=6):
        by_radicand = defaultdict(Fraction)
        for x in range(abs(a - b), a + b + 1, 2):
            left, right = six((a, b, x, c, d, p)), six((c, d, x, b, a, q))
            if left is None or right is None:
                continue
            sign = -1 if (p + q + x) // 2 % 2 else 1  # p + q + x is even when both are admissible
            term = ExactSymbol(sign * (x + 1) * left.coeff * right.coeff, left.radicand * right.radicand)
            by_radicand[term.radicand] += term.coeff
        total = {r: q for r, q in by_radicand.items() if q}
        rhs = six((a, c, q, b, d, p))
        assert total == ({} if rhs is None or rhs.is_zero else {rhs.radicand: rhs.coeff}), (a, b, c, d, p, q)
        nonzero += bool(total)
    assert nonzero == 181


def test_biedenharn_elliott_on_every_spin_up_to_3_2():
    six = _memoised_sixj()
    nonzero = 0
    for a, b, c, d, e, f, p, q, r in itertools.product(range(MAX_TWICE_BE + 1), repeat=9):
        by_radicand = defaultdict(Fraction)
        for x in range(abs(a - b), a + b + 1, 2):
            factors = six((a, b, x, c, d, p)), six((c, d, x, e, f, q)), six((e, f, x, b, a, r))
            if None in factors:
                continue
            s_plus_x = a + b + c + d + e + f + p + q + r + x  # doubled
            assert s_plus_x % 2 == 0  # an integer when all three are admissible
            coeff, radicand = (-1) ** (s_plus_x // 2) * (x + 1), Fraction(1)
            for value in factors:
                coeff, radicand = coeff * value.coeff, radicand * value.radicand
            term = ExactSymbol(coeff, radicand)
            by_radicand[term.radicand] += term.coeff
        total = {rad: sum_ for rad, sum_ in by_radicand.items() if sum_}
        left, right = six((p, q, r, e, a, d)), six((p, q, r, f, b, c))
        rhs = None if left is None or right is None else ExactSymbol(
            left.coeff * right.coeff, left.radicand * right.radicand)
        expected = {} if rhs is None or rhs.is_zero else {rhs.radicand: rhs.coeff}
        assert total == expected, (a, b, c, d, e, f, p, q, r)
        nonzero += bool(total)
    assert nonzero == 1495
