import itertools
import math
import random
from fractions import Fraction

import pytest

from sixj import (
    NonEuclideanError,
    SpinSextuple,
    cayley_menger,
    discriminant_check,
    saddle_coeff_a,
    tet_from_spins,
    triangle_sums,
)
from oracles import random_admissible

HALF = Fraction(1, 2)
REGULAR_EXT = math.pi - math.acos(1.0 / 3.0)


def column_symmetries(spins):
    """The 24 relabelings: column permutations and double row swaps."""
    cols = [(spins[0], spins[3]), (spins[1], spins[4]), (spins[2], spins[5])]
    out = []
    for perm in itertools.permutations(cols):
        for flips in itertools.product((False, True), repeat=3):
            if sum(flips) % 2:
                continue  # swaps come in pairs
            arranged = [(b, a) if fl else (a, b) for (a, b), fl in zip(perm, flips)]
            top = tuple(x for x, _ in arranged)
            bot = tuple(x for _, x in arranged)
            out.append(top + bot)
    return out


class TestTetGeometry:
    def test_regular_volume(self):
        geo = tet_from_spins(SpinSextuple.of(1, 1, 1, 1, 1, 1))
        assert geo.volume == pytest.approx(1.0 / (6.0 * math.sqrt(2.0)), rel=1e-14)
        assert geo.cayley_menger == 4

    def test_regular_exterior_angles(self):
        geo = tet_from_spins(SpinSextuple.of(1, 1, 1, 1, 1, 1))
        for theta in geo.theta_ext:
            assert theta == pytest.approx(REGULAR_EXT, rel=1e-12)

    def test_flat_configuration_rejected(self):
        # one face with a tight triangle inequality collapses the embedding
        with pytest.raises(NonEuclideanError):
            tet_from_spins(SpinSextuple.of(1, 1, 2, 1, 1, 2))

    def test_negative_cm_rejected(self):
        with pytest.raises(NonEuclideanError):
            tet_from_spins(SpinSextuple.of(HALF, 1, 1, 1, 1, HALF))

    def test_positive_cm_with_broken_face_rejected(self):
        # CM > 0, but face (j1, j2, j3) = (1/2, 1/2, 3/2) is not a triangle
        s = SpinSextuple.of(HALF, HALF, Fraction(3, 2), HALF, Fraction(5, 2), Fraction(3, 2))
        assert cayley_menger(s) > 0
        with pytest.raises(NonEuclideanError, match="triangle inequality"):
            tet_from_spins(s)

    def test_exterior_angles_in_range_and_complementary(self):
        rng = random.Random(61)
        count = 0
        while count < 200:
            s = random_admissible(rng, n=1, max_twice=20, min_twice=1)[0]
            try:
                geo = tet_from_spins(s)
            except NonEuclideanError:
                continue
            for i, theta in enumerate(geo.theta_ext):
                assert 0.0 < theta < math.pi
                assert geo.theta_int(i) + theta == pytest.approx(math.pi, abs=1e-12)
            count += 1

    def test_embedding_reproduces_lengths(self):
        from sixj.geometry import _embed

        rng = random.Random(62)
        count = 0
        while count < 100:
            s = random_admissible(rng, n=1, max_twice=16, min_twice=1)[0]
            try:
                geo = tet_from_spins(s)
            except NonEuclideanError:
                continue
            a, b, c, d = _embed(s)
            j1, j2, j3, J1, J2, J3 = (float(x) for x in s.spins)
            assert geo.lengths == (j1, j2, j3, J1, J2, J3)
            dist = lambda p, q: math.dist(p, q)
            assert dist(b, c) == pytest.approx(j1, rel=1e-9)
            assert dist(c, a) == pytest.approx(j2, rel=1e-9)
            assert dist(a, b) == pytest.approx(j3, rel=1e-9)
            assert dist(a, d) == pytest.approx(J1, rel=1e-9)
            assert dist(b, d) == pytest.approx(J2, rel=1e-9)
            assert dist(c, d) == pytest.approx(J3, rel=1e-9)
            count += 1

    def test_volume_symmetric_under_relabelings(self):
        s0 = (1, Fraction(3, 2), 2, Fraction(5, 2), Fraction(3, 2), 2)
        base = tet_from_spins(SpinSextuple.of(*s0)).volume
        for relabeled in column_symmetries(s0):
            geo = tet_from_spins(SpinSextuple.of(*relabeled))
            assert geo.volume == pytest.approx(base, rel=1e-12)

    def test_scale_covariance(self):
        s = SpinSextuple.of(1, Fraction(3, 2), 2, Fraction(5, 2), Fraction(3, 2), 2)
        base = tet_from_spins(s)
        for k in (2, 3, 7):
            scaled = tet_from_spins(s.scaled(k))
            assert scaled.volume == pytest.approx(k**3 * base.volume, rel=1e-12)
            for a, b in zip(scaled.theta_ext, base.theta_ext):
                assert a == pytest.approx(b, abs=1e-12)


class TestDiscriminant:
    def test_pencil_case_exact(self):
        alg, geo = discriminant_check(SpinSextuple.of(1, 1, 1, 1, 1, 1))
        assert alg == 8.0 and geo == 8.0

    def test_homogeneity_degree_six(self):
        s = SpinSextuple.of(1, 1, 1, 1, 1, 1)
        for k in (2, 3, 5):
            alg, geo = discriminant_check(s.scaled(k))
            assert alg == pytest.approx(8.0 * k**6, rel=1e-12)
            assert geo == pytest.approx(8.0 * k**6, rel=1e-12)

    def test_identity_on_random_euclidean(self):
        from sixj import HalfInt

        rng = random.Random(63)
        count = 0
        while count < 300:
            s = SpinSextuple(*(HalfInt(rng.randint(1, 40)) for _ in range(6)))
            if cayley_menger(s) <= 0:
                continue
            alg, geo = discriminant_check(s)
            assert abs(alg - geo) <= 1e-9 * max(1.0, abs(alg))
            count += 1

    def test_non_euclidean_reports_nonpositive(self):
        alg, geo = discriminant_check(SpinSextuple.of(HALF, 1, 1, 1, 1, HALF))
        assert alg == -0.25 and geo == -0.25
        assert alg <= 0

    def test_cross_identity_for_coefficient_a(self):
        from sixj import HalfInt

        rng = random.Random(64)
        for _ in range(200):
            s = SpinSextuple(*(HalfInt(rng.randint(0, 20)) for _ in range(6)))
            t = triangle_sums(s)
            a = saddle_coeff_a(s)
            v = [x.as_fraction() for x in t.v]
            p = [x.as_fraction() for x in t.p]
            vv = sum(v[i] * v[j] for i in range(4) for j in range(i + 1, 4))
            pp = sum(p[i] * p[j] for i in range(3) for j in range(i + 1, 3))
            assert a == vv - pp
