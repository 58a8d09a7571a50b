import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixj import HalfInt, NonEuclideanError, SpinSextuple, discriminant_check, tet_from_spins
from sixj.geometry import cayley_menger, saddle_coeff_a
from sixj.triangles import triangle_sums
from oracles import cayley_menger_det, random_admissible

HALF = Fraction(1, 2)
FLAT_MESSAGE = "Cayley-Menger determinant"
REGULAR_EXT = math.pi - math.acos(1.0 / 3.0)
FACES = ((0, 1, 2), (0, 4, 5), (3, 1, 5), (3, 4, 2))  # (j1 j2 j3), (j1 J2 J3), (J1 j2 J3), (J1 J2 j3)


def sextuple(d) -> SpinSextuple:
    """The sextuple with doubled spins d."""
    return SpinSextuple(*map(HalfInt, d))


def halves(d) -> list[Fraction]:
    return [Fraction(x, 2) for x in d]


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

    @pytest.mark.parametrize("d", [(0, 0, 1, 0, 0, 10**80), (2 * 10**60,) * 6])
    def test_spins_past_the_float_range(self, d):
        # the determinant is exact, but neither the flatness message nor the
        # volume has a float value
        with pytest.raises(ValueError, match="too large for the floating-point geometry"):
            tet_from_spins(sextuple(d))
        with pytest.raises(ValueError, match="too large for the floating-point geometry"):
            discriminant_check(sextuple(d))

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
            a, b, c, d = _embed(geo.lengths)
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
            cm = cayley_menger(s)
            assert cm == cayley_menger_det([x.as_fraction() for x in s.spins]), s
            if cm <= 0:
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


class TestCayleyMengerInteger:
    """The integer determinant read off the saddle identity, against the
    textbook 5x5 determinant of the oracle and the old rational flatness test."""

    def test_exhaustive_against_oracle(self):
        zeros = negative = broken_face = 0
        for d in itertools.product(range(5), repeat=6):
            cm = cayley_menger(sextuple(d))
            assert cm == cayley_menger_det(halves(d)), d
            zeros += 0 in d
            negative += cm < 0
            if cm > 0 and any(x + y < z for x, y, z in (sorted(d[i] for i in f) for f in FACES)):
                broken_face += 1
        assert zeros and negative and broken_face

    def test_degeneracy_boundary(self):
        # the needle disphenoid {P/2 1/2 P/2; P/2 1/2 P/2} has CM = (8 P^2 - 4) / 64
        # and gets flatter relative to P^6 as P grows: the first P whose CM
        # falls under 1e-12 (max j)^6 is flat, the one before it is not
        def cm64(p):
            return 64 * cayley_menger(sextuple((p, 1, p, p, 1, p)))

        p = 100
        while 10**12 * cm64(p) > p**6:
            p += 1
        assert p - 1 >= 100 and cm64(p) == 8 * p * p - 4 > 0
        assert 10**12 * cm64(p - 1) > (p - 1) ** 6
        flat, above = sextuple((p, 1, p, p, 1, p)), sextuple((p - 1, 1, p - 1, p - 1, 1, p - 1))
        with pytest.raises(NonEuclideanError, match=FLAT_MESSAGE):
            tet_from_spins(flat)
        geo = tet_from_spins(above)
        assert geo.cayley_menger == cm64(p - 1) / 64 and geo.volume > 0

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(*[st.integers(0, 400)] * 6),
        st.builds(
            lambda p, e, dp: tuple(max(0, x + y) for x, y in zip((p, e, p, p, e, p), dp)),
            st.integers(1600, 1800), st.integers(0, 3), st.tuples(*[st.integers(-1, 1)] * 6),
        ),
    ))
    def test_integer_flatness_test_equals_rational_form(self, d):
        cm = cayley_menger_det(halves(d))
        flat = cm <= Fraction(1, 10**12) * Fraction(max(d), 2) ** 6
        assert (10**12 * 64 * cayley_menger(sextuple(d)) <= max(d) ** 6) == flat
        try:
            tet_from_spins(sextuple(d))
            message = ""
        except NonEuclideanError as exc:
            message = str(exc)
        assert (FLAT_MESSAGE in message) == flat, (d, message)


class TestDihedralAccuracy:
    def test_against_mpmath_embedding(self):
        """Angles and volume against a 50-digit embedding from the Gram matrix."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            worst_angle, worst_volume = self._worst_errors(mpmath)
        print(f"worst dihedral error {worst_angle:.3g} rad, worst volume error {worst_volume:.3g}")
        assert worst_angle <= 1e-12
        assert worst_volume <= 1e-15

    @staticmethod
    def _worst_errors(mpmath):
        rng = random.Random(65)
        worst_angle = worst_volume = 0.0
        count = 0
        while count < 1000:
            d = tuple(rng.randint(1, 400) for _ in range(6))
            try:
                geo = tet_from_spins(sextuple(d))
            except NonEuclideanError:
                continue
            gram, exact = _gram_interior_angles(mpmath, d)
            for theta, th_int in zip(geo.theta_ext, exact):
                worst_angle = max(worst_angle, float(abs(theta - (mpmath.pi - th_int))))
            volume = mpmath.sqrt(mpmath.det(gram)) / 6
            worst_volume = max(worst_volume, float(abs(geo.volume - volume) / volume))
            count += 1
        return worst_angle, worst_volume


def _gram_interior_angles(mpmath, d):
    """The Gram matrix of the tetrahedron with doubled spins d and its six interior
    dihedral angles, from its Cholesky embedding at mpmath's working precision."""
    # vertices A, B, C, D with AB = j3, AC = j2, AD = J1, BC = j1, BD = J2, CD = J3
    j1, j2, j3, J1, J2, J3 = (mpmath.mpf(x) / 2 for x in d)
    to_a = (j3, j2, J1)  # |B - A|, |C - A|, |D - A|
    across = {(0, 1): j1, (0, 2): J2, (1, 2): J3}
    gram = mpmath.matrix(3, 3)
    for i in range(3):
        for k in range(3):
            cross = 0 if i == k else across[min(i, k), max(i, k)]
            gram[i, k] = (to_a[i] ** 2 + to_a[k] ** 2 - cross**2) / 2
    rows = mpmath.cholesky(gram)
    a = mpmath.matrix([0, 0, 0])
    b, c, dd = (mpmath.matrix([rows[i, 0], rows[i, 1], rows[i, 2]]) for i in range(3))

    def interior(p, q, r, t):
        u = q - p
        n1, n2 = _cross3(mpmath, u, r - p), _cross3(mpmath, u, t - p)
        return mpmath.acos(_dot3(n1, n2) / mpmath.sqrt(_dot3(n1, n1) * _dot3(n2, n2)))

    return gram, (
        interior(b, c, a, dd), interior(c, a, b, dd), interior(a, b, c, dd),
        interior(a, dd, b, c), interior(b, dd, a, c), interior(c, dd, a, b),
    )


def near_flat(rng: random.Random, top: int) -> list[int]:
    """Doubled spins: five drawn from 1..top, and a sixth as near to a flat embedding
    as tet_from_spins accepts."""
    while True:
        five = [rng.randint(1, top) for _ in range(5)]
        # 64 CM is a quadratic a y^2 + b y + c in y = x^2, x the sixth doubled spin; it is
        # positive between the roots, so step inward from each root to the first accepted x
        c, c1, c4 = (64 * cayley_menger_det(halves(five + [x])) for x in (0, 1, 2))
        a = (c4 - 4 * c1 + 3 * c) / 12
        b = c1 - c - a
        disc = b * b - 4 * a * c
        if a >= 0 or disc < 0:
            continue
        found = []
        for y, step in (((-b + math.sqrt(disc)) / (2 * a), 1), ((-b - math.sqrt(disc)) / (2 * a), -1)):
            start = math.floor(math.sqrt(max(y, 0))) - 2 * step
            for x in range(start, start + 60 * step, step):
                try:
                    if 1 <= x <= top and tet_from_spins(sextuple(five + [x])):
                        found.append((a * x**4 + b * x**2 + c, x))
                        break
                except NonEuclideanError:
                    continue
        if found:
            return five + [min(found)[1]]


class TestNearFlatAccuracy:
    """Near-flat tetrahedra that pass the flatness refusal: the float exterior angles
    against 60-digit Gram-matrix angles, per angle and as the phase k sum j theta at the
    asymptotics' domain bound k max(2j) < 2**40."""

    def test_angles_and_phase_at_the_domain_bound(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(21)
        worst_angle = worst_phase = worst_flatness = 0.0
        with mpmath.workdps(60):
            for _ in range(300):
                d = near_flat(rng, 4 * 10**5)
                theta = tet_from_spins(sextuple(d)).theta_ext
                exact = [mpmath.pi - x for x in _gram_interior_angles(mpmath, d)[1]]
                errors = [mpmath.mpf(t) - e for t, e in zip(theta, exact)]
                k = (2**40 - 1) // max(d)
                worst_angle = max(worst_angle, *(float(abs(e)) for e in errors))
                worst_phase = max(worst_phase, float(abs(k * sum(x * e for x, e in zip(d, errors)) / 2)))
                worst_flatness = max(worst_flatness, float(64 * cayley_menger_det(halves(d)) / max(d) ** 6))
        print(f"near-flat: worst angle error {worst_angle:.3g} rad, worst phase error {worst_phase:.3g} rad")
        assert worst_flatness < 1e-4  # every one is near flat: 64 CM / max(2j)^6 past 1e-12 but small
        # measured on this sample: 2.8e-11 rad and 2.0e-3 rad
        assert worst_angle <= 1e-10
        assert worst_phase <= 1e-2


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross3(mpmath, u, v):
    return mpmath.matrix([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]])
