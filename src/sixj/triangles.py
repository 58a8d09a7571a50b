"""Spin sextuples, triangle/quadrangle sums, parity and admissibility.

A symbol couples six spins laid out as two rows (j1 j2 j3 / J1 J2 J3).  The
four triads

    v1 = j1+j2+j3   v2 = J1+j2+J3   v3 = J1+J2+j3   v4 = j1+J2+J3

and the three column pair sums

    p1 = j2+J2+j3+J3   p2 = j3+J3+j1+J1   p3 = j1+J1+j2+J2

drive everything downstream: admissibility is the non-negativity of all
twelve differences p_j - v_i, and the parity of a supersymmetric symbol is
the count of integer v_i (4 -> alpha, 2 -> beta, 0 -> gamma).

A ``SpinSextuple`` stores the doubled spins (2j1, 2j2, 2j3, 2J1, 2J2, 2J3)
once: ``of`` and ``parse`` validate straight into that tuple, ``scaled``
multiplies it, and the ``HalfInt`` fields j1 ... J3 and ``spins`` are views.
Every rule runs on those plain ints: ``_sums`` gives the doubled v and p,
``_check``, ``_parity`` and ``_beta_split`` the admissibility, parity and
beta bookkeeping, ``_jj`` the opposite-edge product sum 4 sum j*J.  Every
program path (the exact evaluators, the geometry, the asymptotics and the
``classify`` command) calls that core directly and builds no HalfInt; its
messages print doubled ints with ``_half_text``.  ``TriangleData``,
``triangle_sums``, ``check_admissible``, ``is_admissible`` and
``classify_parity`` give the same rules in HalfInt form, and
``beta_decompose`` and ``rescale`` the beta split and the parity of k*s.
"""

from __future__ import annotations

import enum

from .errors import IntegralityViolation, ParityViolation, TriangleViolation
from .halfint import HalfInt, _half_text, _parse_twice, _twice_of
from .record import Record

_FIELD_NAMES = ("j1", "j2", "j3", "J1", "J2", "J3")


class Parity(str, enum.Enum):
    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"

    def __str__(self) -> str:
        return self.value


def _view(i: int) -> property:
    """The HalfInt view of doubled spin i, for the j1 ... J3 fields."""
    return property(lambda self: HalfInt(self._d[i]))


class SpinSextuple(Record):
    """The six spins (j1, j2, j3, J1, J2, J3), each a non-negative half-integer.

    Stored once as the doubled ints; the ``HalfInt`` fields are views, which
    ``repr``, pickling and pattern matching read.
    """

    __slots__ = ("_d",)
    __match_args__ = _FIELD_NAMES

    def __init__(self, j1: HalfInt, j2: HalfInt, j3: HalfInt,
                 J1: HalfInt, J2: HalfInt, J3: HalfInt):
        _store(self, tuple(map(_twice_of, (j1, j2, j3, J1, J2, J3))))

    @classmethod
    def _of_doubled(cls, d: tuple[int, ...]) -> "SpinSextuple":
        self = object.__new__(cls)
        _store(self, d)
        return self

    j1, j2, j3, J1, J2, J3 = map(_view, range(6))

    @property
    def spins(self) -> tuple[HalfInt, ...]:
        return tuple(map(HalfInt, self._d))

    def doubled(self) -> tuple[int, int, int, int, int, int]:
        """The doubled spins (2j1, 2j2, 2j3, 2J1, 2J2, 2J3)."""
        return self._d

    @classmethod
    def of(cls, *values) -> "SpinSextuple":
        if len(values) != 6:
            raise ValueError("a sextuple needs exactly six spins")
        a, b, c, A, B, C = values  # class int, the common input, is doubled here; others by _twice_of
        return cls._of_doubled((
            2 * a if a.__class__ is int else _twice_of(a), 2 * b if b.__class__ is int else _twice_of(b),
            2 * c if c.__class__ is int else _twice_of(c), 2 * A if A.__class__ is int else _twice_of(A),
            2 * B if B.__class__ is int else _twice_of(B), 2 * C if C.__class__ is int else _twice_of(C)))

    @classmethod
    def parse(cls, texts) -> "SpinSextuple":
        vals = list(texts)
        if len(vals) != 6:
            raise ValueError("a sextuple needs exactly six spins")
        return cls._of_doubled(tuple(map(_parse_twice, vals)))

    def scaled(self, k: int) -> "SpinSextuple":
        """The sextuple with every spin multiplied by a positive integer k."""
        k = _scale_factor(k)
        return self._of_doubled(tuple(x * k for x in self._d))

    def __str__(self) -> str:
        j = list(map(_half_text, self._d))
        return f"{{{' '.join(j[:3])}; {' '.join(j[3:])}}}"


def _scale_factor(k) -> int:
    """k, once it is a positive int: the one check of every scale factor."""
    if not isinstance(k, int):
        raise TypeError(f"scale factor must be an int, got {type(k).__name__}")
    if k < 1:
        raise ValueError(f"scale factor must be a positive integer, got {k}")
    return k


def _store(s: SpinSextuple, d: tuple[int, ...]) -> None:
    """Set the doubled spins d of a new sextuple; ValueError names a negative one."""
    if min(d) < 0:
        name, twice = next((n, x) for n, x in zip(_FIELD_NAMES, d) if x < 0)
        raise ValueError(f"spin {name} must be non-negative, got {_half_text(twice)}")
    object.__setattr__(s, "_d", d)


class TriangleData(Record):
    """The four triangle sums v and three quadrangle sums p of a sextuple."""

    __slots__ = ("v", "p")
    v: tuple[HalfInt, HalfInt, HalfInt, HalfInt]
    p: tuple[HalfInt, HalfInt, HalfInt]

    def doubled(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The doubled sums (2v, 2p) as plain int tuples."""
        return tuple(x.twice for x in self.v), tuple(x.twice for x in self.p)


_PARITY_BY_COUNT = {4: Parity.ALPHA, 2: Parity.BETA, 0: Parity.GAMMA}
# the slots of the faces v1 ... v4: (j1 j2 j3), (J1 j2 J3), (J1 J2 j3), (j1 J2 J3)
_FACES = ((0, 1, 2), (3, 1, 5), (3, 4, 2), (0, 4, 5))


def _sums(d):
    """Doubled triangle sums v (over _FACES) and quadrangle sums p of doubled spins d."""
    a, b, c, A, B, C = d
    v = (a + b + c, A + b + C, A + B + c, a + B + C)
    return v, (b + B + c + C, c + C + a + A, a + A + b + B)


def _jj(d) -> int:
    """4 sum j*J = sum of the doubled opposite-edge products d_i d_(i+3)."""
    return d[0] * d[3] + d[1] * d[4] + d[2] * d[5]


def _integer_count(v) -> int:
    """How many of the doubled triangle sums v are even (integer sums)."""
    return 4 - (v[0] & 1) - (v[1] & 1) - (v[2] & 1) - (v[3] & 1)


def _recovered(v, p) -> tuple[int, ...]:
    """Doubled 2*j1 = v1+v4-p1, 2*j2 = v1+v2-p2, 2*j3 = v1+v3-p3,
    2*J1 = v2+v3-p1, 2*J2 = v3+v4-p2, 2*J3 = v2+v4-p3 of doubled (v, p)."""
    v1, v2, v3, v4 = v
    p1, p2, p3 = p
    return (v1 + v4 - p1, v1 + v2 - p2, v1 + v3 - p3,
            v2 + v3 - p1, v3 + v4 - p2, v2 + v4 - p3)


def _parity(n_int: int) -> Parity:
    parity = _PARITY_BY_COUNT.get(n_int)
    if parity is None:
        raise ParityViolation(f"integer triangle-sum count must be 0, 2 or 4, got {n_int}")
    return parity


def _check(v, p, algebra: str) -> Parity:
    """check_admissible on the doubled sums (v, p) of spins; returns the parity.

    Sums of spins always recover them, so the recovered-spin check is left out.
    """
    if min(p) < max(v):
        pj, vi = next((pj, vi) for pj in p for vi in v if pj < vi)
        raise TriangleViolation(
            f"triangular inequality fails: p={_half_text(pj)} < v={_half_text(vi)}"
        )
    n_int = _integer_count(v)
    if algebra == "su2":
        if n_int != 4:
            raise IntegralityViolation(
                f"su2 requires integer triangle sums, got v={tuple(map(_half_text, v))}"
            )
    elif algebra != "osp12":
        raise ValueError(f"unknown algebra {algebra!r}")
    return _parity(n_int)


def triangle_sums(s: SpinSextuple) -> TriangleData:
    """Triangle and quadrangle sums of a sextuple; sum(p) == sum(v) always."""
    v, p = _sums(s.doubled())
    return TriangleData(tuple(map(HalfInt, v)), tuple(map(HalfInt, p)))


def check_admissible(t: TriangleData, algebra: str) -> None:
    """Raise unless the triangle data is admissible for the given algebra.

    Checks, in order: the twelve triangular inequalities p_j - v_i >= 0, the
    parity constraint on the count of integer v_i (all four for su2; 0, 2 or 4
    for osp12), and the integrality of the six recovered doubled spins.
    """
    v, p = t.doubled()
    _check(v, p, algebra)
    for twice, name in zip(_recovered(v, p), _FIELD_NAMES):
        if twice % 2:
            raise IntegralityViolation(f"recovered 2*{name} = {twice}/2 is not an integer")
        if twice < 0:
            raise IntegralityViolation(f"recovered spin {name} is negative")


def is_admissible(s: SpinSextuple, algebra: str) -> bool:
    """Non-throwing admissibility test for a sextuple."""
    try:
        _check(*_sums(s.doubled()), algebra)
    except (TriangleViolation, IntegralityViolation, ParityViolation):
        return False
    return True


def classify_parity(t: TriangleData) -> Parity:
    """alpha / beta / gamma by the count of integer triangle sums (4 / 2 / 0)."""
    return _parity(_integer_count(t.doubled()[0]))


class BetaDecomposition(Record):
    """Beta-parity bookkeeping: integer/half-integer split of the v and p sums.

    ``jstar`` is the spin at the vertex shared by the two half-integer
    triangles and ``jstar_companion`` the spin in the same column of the
    symbol; ``jstar_slot`` locates jstar in (j1, j2, j3, J1, J2, J3) order.
    """

    __slots__ = ("v", "v_prime", "vbar", "vbar_prime", "p", "pbar", "pbar_prime",
                 "jstar", "jstar_companion", "jstar_slot")
    v: HalfInt
    v_prime: HalfInt
    vbar: HalfInt
    vbar_prime: HalfInt
    p: HalfInt
    pbar: HalfInt
    pbar_prime: HalfInt
    jstar: HalfInt
    jstar_companion: HalfInt
    jstar_slot: int


# Correlation table rows keyed by the pair of half-integer triangle indices,
# as a bit mask (bit i set when v_i is a half-integer): (vbar indices, jstar
# slot, integer quadrangle index, integer triangle indices, half-integer
# quadrangle indices), all 0-based into the v / p / spin tuples.  Within-pair
# order follows the table; every downstream formula is symmetric under
# swapping a pair.
_BETA_TABLE: dict[int, tuple[tuple[int, int], int, int, tuple[int, int], tuple[int, int]]] = {
    0b1001: ((3, 0), 0, 0, (1, 2), (1, 2)),  # vbar = v4,v1 -> jstar j1, p1
    0b0011: ((1, 0), 1, 1, (2, 3), (2, 0)),  # vbar = v2,v1 -> jstar j2, p2
    0b0101: ((2, 0), 2, 2, (3, 1), (0, 1)),  # vbar = v3,v1 -> jstar j3, p3
    0b0110: ((1, 2), 3, 0, (3, 0), (1, 2)),  # vbar = v2,v3 -> jstar J1, p1
    0b1100: ((2, 3), 4, 1, (1, 0), (2, 0)),  # vbar = v3,v4 -> jstar J2, p2
    0b1010: ((3, 1), 5, 2, (2, 0), (0, 1)),  # vbar = v4,v2 -> jstar J3, p3
}

_COMPANION_SLOT = {0: 3, 1: 4, 2: 5, 3: 0, 4: 1, 5: 2}


def _beta_split(d, v, p) -> tuple[int, ...]:
    """The beta split of doubled spins d whose sums (v, p), from _sums, have beta parity.

    Returns (v, v', vbar, vbar', p, pbar, pbar', jstar) doubled, then the
    jstar slot.
    """
    mask = (v[0] & 1) | (v[1] & 1) << 1 | (v[2] & 1) << 2 | (v[3] & 1) << 3
    (vb0, vb1), slot, p_idx, (vi0, vi1), (pb0, pb1) = _BETA_TABLE[mask]
    return (v[vi0], v[vi1], v[vb0], v[vb1], p[p_idx], p[pb0], p[pb1], d[slot], slot)


def beta_decompose(s: SpinSextuple, t: TriangleData) -> BetaDecomposition:
    """Resolve a beta-parity sextuple into its integer/half-integer split.

    Both identities 2*jstar = pbar + pbar' - v - v' = vbar + vbar' - p must
    agree; a mismatch indicates inconsistent inputs and raises ValueError.
    The mask makes v and v' integers, and the identities then make p one.
    """
    v, p = t.doubled()
    halves = 4 - _integer_count(v)
    if halves != 2:
        raise ParityViolation(f"beta decomposition needs exactly two half-integer triangles, got {halves}")
    *split, slot = _beta_split(s.doubled(), v, p)
    V, Vp, Vb, Vbp, P, Pb, Pbp, jstar = split
    lhs, rhs = Pb + Pbp - V - Vp, Vb + Vbp - P
    if lhs != rhs or lhs != 2 * jstar:
        raise ValueError(
            "inconsistent beta decomposition: the two doubled-jstar formulas disagree "
            f"({_half_text(lhs)} vs {_half_text(rhs)} vs 2*{_half_text(jstar)})"
        )
    companion = s.spins[_COMPANION_SLOT[slot]]
    return BetaDecomposition(*map(HalfInt, split), companion, slot)


def rescale(s: SpinSextuple, k: int) -> tuple[SpinSextuple, Parity]:
    """Scale every spin by k and classify the parity of the result.

    Transitions: alpha stays alpha for every k; beta and gamma collapse to
    alpha for even k and are preserved for odd k.
    """
    scaled = s.scaled(k)
    return scaled, classify_parity(triangle_sums(scaled))
