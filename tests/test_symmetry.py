"""Metamorphic checks: symmetries of the exact symbols.

Both symbols are invariant under the 24 relabelings of the tetrahedron:
any permutation of the three columns of {j1 j2 j3; J1 J2 J3}, combined with
swapping the upper and lower spins in any two columns.  The SU(2) symbol also
has Regge's symmetry (Regge, Nuovo Cimento 11 (1959) 116),

    {j1 j2 j3; J1 J2 J3} = {j1, s-J3, s-J2; J1, s-j3, s-j2},
    s = (j2 + J2 + j3 + J3) / 2.

Every admissible sextuple of a small grid is evaluated once; each of its
images must give a componentwise identical ExactSymbol.  The grids are closed
under the relabelings, so every image is looked up, not re-evaluated.
"""

import itertools

import pytest

from sixj import HalfInt, SpinSextuple, sixj_exact, sixj_super_exact
from sixj.triangles import is_admissible

COLUMN_FLIPS = ((), (0, 1), (0, 2), (1, 2))


def tetrahedral_images(d):
    """The 24 relabelings of doubled spins d = (2j1, 2j2, 2j3, 2J1, 2J2, 2J3)."""
    cols = [(d[0], d[3]), (d[1], d[4]), (d[2], d[5])]
    out = []
    for perm in itertools.permutations(range(3)):
        for flips in COLUMN_FLIPS:
            c = [cols[i][::-1] if n in flips else cols[i] for n, i in enumerate(perm)]
            out.append((c[0][0], c[1][0], c[2][0], c[0][1], c[1][1], c[2][1]))
    return out


def regge_image(d):
    a, b, c, A, B, C = d
    s = (b + B + c + C) // 2  # doubled (j2 + J2 + j3 + J3) / 2
    return (a, s - C, s - B, A, s - c, s - b)


def sextuple(d):
    return SpinSextuple(*map(HalfInt, d))


def exact_values(evaluate, algebra, max_twice):
    grid = itertools.product(range(max_twice + 1), repeat=6)
    return {
        d: evaluate(s)
        for d in grid
        if is_admissible(s := sextuple(d), algebra)
    }


@pytest.fixture(scope="module")
def su2_values():
    return exact_values(sixj_exact, "su2", 6)  # spins <= 3


@pytest.fixture(scope="module")
def osp_values():
    return exact_values(sixj_super_exact, "osp12", 5)  # spins <= 5/2


def test_images_are_24_distinct_relabelings():
    d = (1, 2, 3, 4, 5, 6)
    images = tetrahedral_images(d)
    assert len(set(images)) == 24 and d in images


def _assert_tetrahedral(values):
    mismatches = [
        (d, image)
        for d, value in values.items()
        for image in tetrahedral_images(d)
        if (values[image].coeff, values[image].radicand) != (value.coeff, value.radicand)
    ]
    assert not mismatches, mismatches[:5]


def test_su2_tetrahedral_symmetry(su2_values):
    assert len(su2_values) > 1000
    _assert_tetrahedral(su2_values)


def test_osp12_tetrahedral_symmetry(osp_values):
    assert len(osp_values) > 1000
    _assert_tetrahedral(osp_values)


def test_su2_regge_symmetry(su2_values):
    checked = 0
    for d, value in su2_values.items():
        image = regge_image(d)
        if image == d:
            continue
        other = su2_values.get(image) or sixj_exact(sextuple(image))
        assert (other.coeff, other.radicand) == (value.coeff, value.radicand), (d, image)
        checked += 1
    assert checked > 1000
