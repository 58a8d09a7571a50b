"""Euclidean tetrahedron geometry from the six spin labels.

Edge lengths are the spin values themselves, with opposite-edge pairing
(j1|J1, j2|J2, j3|J3): the faces are then exactly the four triangle sums of
the symbol.  The squared-distance (Cayley-Menger) determinant CM is one
integer on the doubled spins: the saddle coefficients A, B, C of the
asymptotics are exact integers there, and 4AC - B^2 = 576 V^2 = 2 CM holds
for any six lengths, so 64 CM = 2 (2 a2 c16 - b4^2) with (a2, b4, c16) =
(2A, 4B, 16C).  Flatness tests, the volume and the discriminant check all
read that integer, so none of them suffers cancellation.  The dihedral
angles come from an explicit floating-point embedding (base face in the
plane, apex solved from the three remaining lengths).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonEuclideanError
from .exact import _ratio_to_float
from .halfint import _half_text
from .record import Record
from .triangles import _FACES, SpinSextuple, TriangleData, _jj, _sums

_TOO_LARGE = "spins are too large for the floating-point geometry"


class TetGeometry(Record):
    """Embedded tetrahedron: edge lengths, volume, exterior dihedral angles.

    ``lengths`` and ``theta_ext`` are ordered (j1, j2, j3, J1, J2, J3); the
    angle at index i is the exterior dihedral along edge i.  ``cayley_menger``
    is the exact determinant, equal to 288 * volume**2.
    """

    __slots__ = ("lengths", "volume", "theta_ext", "cayley_menger")
    lengths: tuple[float, float, float, float, float, float]
    volume: float
    theta_ext: tuple[float, float, float, float, float, float]
    cayley_menger: Fraction

    def theta_int(self, i: int) -> float:
        return math.pi - self.theta_ext[i]


def _saddle(d, v) -> tuple[int, int, int]:
    """(2A, 4B, 16C) on doubled spins d and doubled triangle sums v, as ints.

    With j = d/2: 2A = sum d_i d_(i+3), 4B = that sum times sum d plus the
    four doubled vertex triples, 16C = prod v.
    """
    a, b, c, A, B, C = d
    jj = _jj(d)
    return jj, jj * sum(d) + a * b * c + a * B * C + b * C * A + c * A * B, math.prod(v)


def _cm64(d) -> int:
    """64 CM = 2 (2 a2 c16 - b4^2) on doubled spins d, from the saddle identity."""
    a2, b4, c16 = _saddle(d, _sums(d)[0])
    return 2 * (2 * a2 * c16 - b4 * b4)


def _unflat_cm64(s: SpinSextuple, d) -> int:
    """64 CM of s, whose doubled spins are d; NonEuclideanError when CM counts as flat."""
    cm64 = _cm64(d)
    # CM <= 1e-12 (max j)^6 counts as flat; times 64 * 10**12 on doubled spins
    if 10**12 * cm64 <= max(d) ** 6:
        raise NonEuclideanError(
            f"no Euclidean tetrahedron for {s}: Cayley-Menger determinant "
            f"{_ratio_to_float(cm64, 64, _TOO_LARGE):.6g}"
        )
    return cm64


def cayley_menger(s: SpinSextuple) -> Fraction:
    """Exact Cayley-Menger determinant (= 288 V^2) for edge lengths = spins.

    Vertices A, B, C, D carry AB = j3, AC = j2, AD = J1, BC = j1, BD = J2,
    CD = J3, so face ABC is the (j1, j2, j3) triangle and each edge pair
    (j_i, J_i) is opposite.  Read off the saddle identity 2 CM = 4AC - B^2,
    which holds for any six lengths, as one integer over 64.
    """
    return Fraction(_cm64(s.doubled()), 64)


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _norm(a):
    return math.sqrt(_dot(a, a))


def _embed(lengths) -> tuple[tuple[float, float, float], ...]:
    """Coordinates (A, B, C, D) realising the six lengths; assumes CM > 0."""
    j1, j2, j3, J1, J2, J3 = lengths
    a = (0.0, 0.0, 0.0)
    b = (j3, 0.0, 0.0)
    cx = (j2 * j2 + j3 * j3 - j1 * j1) / (2.0 * j3)
    cy2 = j2 * j2 - cx * cx
    cy = math.sqrt(max(cy2, 0.0))
    c = (cx, cy, 0.0)
    dx = (J1 * J1 + j3 * j3 - J2 * J2) / (2.0 * j3)
    dy = (J1 * J1 - J3 * J3 + j2 * j2 - 2.0 * dx * cx) / (2.0 * cy)
    dz2 = J1 * J1 - dx * dx - dy * dy
    dz = math.sqrt(max(dz2, 0.0))
    d = (dx, dy, dz)
    return a, b, c, d


# _dihedral's (p, q, r, t) per edge, as slots of the corners A, B, C, D:
# j1 = BC, j2 = CA, j3 = AB, J1 = AD, J2 = BD, J3 = CD
_EDGES = ((1, 2, 0, 3), (2, 0, 1, 3), (0, 1, 2, 3), (0, 3, 1, 2), (1, 3, 0, 2), (2, 3, 0, 1))


def _dihedral(p, q, r, t) -> float:
    """Interior dihedral angle along edge pq between faces pqr and pqt."""
    u = _sub(q, p)
    uu = _dot(u, u)
    w1 = _sub(r, p)
    w2 = _sub(t, p)
    w1 = _sub(w1, tuple(ci * (_dot(w1, u) / uu) for ci in u))
    w2 = _sub(w2, tuple(ci * (_dot(w2, u) / uu) for ci in u))
    return math.atan2(_norm(_cross(w1, w2)), _dot(w1, w2))


def tet_from_spins(s: SpinSextuple) -> TetGeometry:
    """Geometry of the tetrahedron with edge lengths equal to the spins.

    Raises NonEuclideanError when the Cayley-Menger determinant is not
    positive beyond the degeneracy tolerance (the lengths do not embed, or
    embed flat), or when a face breaks the triangle inequality: a positive
    determinant alone does not make the six lengths a tetrahedron.  Raises
    ValueError when the determinant has no float value.
    """
    twice = s.doubled()
    cm64 = _unflat_cm64(s, twice)
    for face in _FACES:
        a, b, c = sorted(twice[i] for i in face)
        if a + b < c:
            raise NonEuclideanError(
                f"no Euclidean tetrahedron for {s}: face "
                f"({', '.join(_half_text(twice[i]) for i in face)}) breaks the triangle inequality"
            )
    volume = math.sqrt(_ratio_to_float(cm64, 18432, _TOO_LARGE))  # CM / 288 = 64 CM / (64 * 288)
    lengths = tuple(x / 2.0 for x in twice)
    corners = _embed(lengths)
    theta_ext = tuple(math.pi - _dihedral(*(corners[i] for i in edge)) for edge in _EDGES)
    return TetGeometry(lengths, volume, theta_ext, Fraction(cm64, 64))


def saddle_coeff_a(s: SpinSextuple) -> Fraction:
    """Twice the sum of opposite-edge spin products: 2(j1 J1 + j2 J2 + j3 J3)."""
    return Fraction(_jj(s.doubled()), 2)


def saddle_coeff_b(s: SpinSextuple) -> Fraction:
    """Volume-dimension coefficient (sum j*J)(sum p) + 2(j1j2j3 + j1J2J3 + j2J3J1 + j3J1J2)."""
    d = s.doubled()
    return Fraction(_saddle(d, _sums(d)[0])[1], 4)


def saddle_coeff_c(t: TriangleData) -> Fraction:
    """Product of the four triangle sums."""
    return Fraction(math.prod(t.doubled()[0]), 16)


def discriminant_check(s: SpinSextuple) -> tuple[float, float]:
    """(4AC - B^2, 576 V^2) for comparison; no Euclidean requirement.

    The algebraic side uses the saddle coefficients, the geometric side the
    Cayley-Menger determinant (576 V^2 = 2 CM, defined for any input even
    when no tetrahedron exists and the common value is <= 0).  CM is read
    off the saddle identity, so both sides are the same integer 64 CM over
    32 and agree by construction; the tests check that integer against an
    independent 5x5 determinant.
    """
    disc = _ratio_to_float(_cm64(s.doubled()), 32, _TOO_LARGE)
    return disc, disc
