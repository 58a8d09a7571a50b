"""Identities of the exact SU(2) symbols, checked exactly.

Orthogonality (Varshalovich et al. 1988, ch. 9):

    sum_x (2x+1)(2j3+1) {j1 j2 x; j4 j5 j3} {j1 j2 x; j4 j5 j3'} = delta(j3, j3')

for every j3, j3' that close both triangles (j1 j5 j3) and (j4 j2 j3).  Each
product c1 sqrt(r1) c2 sqrt(r2) (2x+1)(2j3+1) is formed as the canonical
``ExactSymbol(c1 c2 w, r1 r2)``, and the coefficients are summed per
radicand: the sum is exact, and no radicand but 1 may keep a non-zero total.
The identity shares no formula with the evaluator's single sum.
"""

import itertools
from collections import defaultdict
from fractions import Fraction

from sixj import ExactSymbol, SpinSextuple, sixj_exact
from sixj.triangles import is_admissible

MAX_TWICE = 6  # every given spin <= 3; x runs past it, up to j1 + j2


def _triangle(a: int, b: int, c: int) -> bool:
    """Doubled spins a, b, c close a triangle with an integer perimeter."""
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0


def test_su2_orthogonality_on_every_spin_up_to_3():
    values = {}

    def six(doubled):
        """{j1 j2 x; j4 j5 j3} on doubled spins, or None where it is not admissible."""
        if doubled not in values:
            s = SpinSextuple.of(*(Fraction(x, 2) for x in doubled))
            values[doubled] = sixj_exact(s) if is_admissible(s, "su2") else None
        return values[doubled]

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
