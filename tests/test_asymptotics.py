import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixj import (
    AdmissibilityError,
    IntegralityViolation,
    NonEuclideanError,
    Parity,
    SixjError,
    SpinSextuple,
    TetGeometry,
    TriangleViolation,
    tet_from_spins,
)
from sixj.asymptotics import _polar, asym_alpha, asym_beta, asym_for_scaled, asym_gamma, asym_standard
from sixj.errors import KParityError
from sixj.geometry import saddle_coeff_a, saddle_coeff_b, saddle_coeff_c
from sixj.halfint import HalfInt
from sixj.triangles import _check, _sums, beta_decompose, triangle_sums
from cores import phase, shift
from oracles import random_admissible

HALF = Fraction(1, 2)
REGULAR_EXT = math.pi - math.acos(1.0 / 3.0)

ALL_ONES = SpinSextuple.of(1, 1, 1, 1, 1, 1)
ALL_HALVES = SpinSextuple.of(*([HALF] * 6))
BETA_EUCLIDEAN = SpinSextuple.of(1, Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), 1)


class TestSaddleCoefficients:
    def test_all_ones(self):
        t = triangle_sums(ALL_ONES)
        assert saddle_coeff_a(ALL_ONES) == 6
        assert saddle_coeff_b(ALL_ONES) == 44
        assert saddle_coeff_c(t) == 81

    def test_all_halves(self):
        t = triangle_sums(ALL_HALVES)
        assert saddle_coeff_a(ALL_HALVES) == Fraction(3, 2)
        assert saddle_coeff_b(ALL_HALVES) == Fraction(11, 2)
        assert saddle_coeff_c(t) == Fraction(81, 16)

    def test_zero_spin_drops_terms(self):
        s = SpinSextuple.of(1, 1, 1, 0, 1, 1)
        j1, j2, j3, J1, J2, J3 = (x.as_fraction() for x in s.spins)
        p_total = 2 * (j1 + j2 + j3 + J1 + J2 + J3)
        expected = (j2 * J2 + j3 * J3) * p_total + 2 * (j1 * j2 * j3 + j1 * J2 * J3)
        assert saddle_coeff_b(s) == expected


class TestShiftPair:
    def test_alpha_all_ones(self):
        magnitude, psi = shift(Parity.ALPHA, ALL_ONES)
        assert magnitude == pytest.approx(math.sqrt(1944.0), rel=1e-12)
        assert psi == pytest.approx(math.atan2(math.sqrt(8.0), 44.0), rel=1e-12)

    def test_gamma_negates_alpha_phase(self):
        n_a, psi_a = shift(Parity.ALPHA, ALL_HALVES)
        n_g, psi_g = shift(Parity.GAMMA, ALL_HALVES)
        assert n_g == n_a
        assert psi_g == -psi_a

    def test_beta_sine_free_case_gives_zero_or_pi(self):
        # with pbar*pbar' == v*v' the sine coefficient vanishes
        _, psi = _polar(-12.5, 0.0)
        assert psi in (0.0, math.pi)

    def test_shift_identity_on_grid(self):
        rng = random.Random(71)
        for _ in range(50):
            a = rng.uniform(-50, 50)
            b = rng.uniform(-50, 50)
            if a == 0 and b == 0:
                continue
            magnitude, psi = _polar(a, b)
            for i in range(100):
                x = -6.0 + 12.0 * i / 99.0
                lhs = a * math.cos(x) + b * math.sin(x)
                rhs = magnitude * math.cos(x - psi)
                assert abs(lhs - rhs) <= 1e-12 * magnitude


class TestDihedralPhase:
    def test_regular_standard(self):
        geo = tet_from_spins(ALL_ONES)
        for k in (1, 5, 20):
            assert phase(None, ALL_ONES, k, geo) == pytest.approx(
                (6 * k + 3) * REGULAR_EXT, rel=1e-12
            )

    def test_gamma_no_half_offsets(self):
        geo = tet_from_spins(ALL_HALVES)
        for k in (1, 7, 33):
            assert phase(Parity.GAMMA, ALL_HALVES, k, geo) == pytest.approx(
                3 * k * REGULAR_EXT, rel=1e-12
            )

    def test_gamma_angle_step_matches_standard_step(self):
        # both angles advance by 2 sum(j theta + J theta) per k -> k+2
        geo = tet_from_spins(ALL_HALVES)
        spins = [float(x) for x in ALL_HALVES.spins]
        step = 2.0 * sum(j * t for j, t in zip(spins, geo.theta_ext))
        for k in (1, 11, 101):
            d_std = phase(None, ALL_HALVES, k + 2, geo) - phase(
                None, ALL_HALVES, k, geo
            )
            d_gam = phase(Parity.GAMMA, ALL_HALVES, k + 2, geo) - phase(
                Parity.GAMMA, ALL_HALVES, k, geo
            )
            assert d_std == pytest.approx(step, rel=1e-9)
            assert d_gam == pytest.approx(step, rel=1e-9)

    def test_gamma_offset_from_standard_is_half_theta_sum(self):
        rng = random.Random(72)
        for s in random_admissible(rng, parity="gamma", n=40, require_euclidean=True, min_twice=1):
            geo = tet_from_spins(s)
            half_sum = 0.5 * sum(geo.theta_ext)
            for k in (1, 9, 101):
                diff = phase(None, s, k, geo) - phase(Parity.GAMMA, s, k, geo)
                assert diff == pytest.approx(half_sum, rel=1e-9)

    def test_beta_offset_is_half_jstar_angle(self):
        rng = random.Random(73)
        for s in random_admissible(rng, parity="beta", n=40, require_euclidean=True, min_twice=1):
            geo = tet_from_spins(s)
            bd = beta_decompose(s, triangle_sums(s))
            for k in (1, 11, 101):
                diff = phase(Parity.BETA, s, k, geo) - phase(None, s, k, geo)
                assert abs(diff - 0.5 * geo.theta_ext[bd.jstar_slot]) <= 1e-12


class TestAsymStandard:
    def test_regular_amplitude(self):
        geo = tet_from_spins(ALL_ONES)
        res = asym_standard(ALL_ONES, 1, geo)
        assert res.amplitude == pytest.approx(
            1.0 / math.sqrt(12.0 * math.pi * geo.volume), rel=1e-12
        )

    def test_power_law(self):
        geo = tet_from_spins(ALL_ONES)
        a10 = asym_standard(ALL_ONES, 10, geo).amplitude
        for k in (20, 50, 160):
            ak = asym_standard(ALL_ONES, k, geo).amplitude
            assert ak / a10 == pytest.approx((k / 10.0) ** -1.5, rel=1e-12)

    def test_angle_step_linear_in_k(self):
        geo = tet_from_spins(ALL_ONES)
        spins = [float(x) for x in ALL_ONES.spins]
        step = 2.0 * sum(j * t for j, t in zip(spins, geo.theta_ext))
        for k in (3, 10, 40):
            d = asym_standard(ALL_ONES, k + 2, geo).angle - asym_standard(ALL_ONES, k, geo).angle
            assert d == pytest.approx(step, rel=1e-9)

    def test_value_is_amplitude_times_cos(self):
        res = asym_standard(ALL_ONES, 17)
        assert res.value == res.amplitude * math.cos(res.angle)

    def test_rejects_inadmissible_rescaling(self):
        # {1/2 ... 1/2} * k has half-integer triangle sums for odd k
        halves = SpinSextuple.of(*([HALF] * 6))
        for k in (1, 3):
            with pytest.raises(IntegralityViolation):
                asym_standard(halves, k)
        assert asym_standard(halves, 2).parity_used == "standard"


class TestAsymAlpha:
    def test_two_term_form_equivalence(self):
        rng = random.Random(74)
        for s in random_admissible(rng, parity="alpha", n=30, require_euclidean=True, min_twice=1):
            geo = tet_from_spins(s)
            t = triangle_sums(s)
            b = float(saddle_coeff_b(s))
            v24 = 24.0 * geo.volume
            for k in (1, 5, 12):
                res = asym_alpha(s, k, geo)
                x = 0.25 * math.pi + phase(Parity.ALPHA, s, k, geo)
                direct = (b * math.cos(x) + v24 * math.sin(x)) / (
                    math.sqrt(48.0 * math.pi * k * geo.volume)
                    * math.sqrt(float(saddle_coeff_c(t)))
                )
                assert res.value == pytest.approx(direct, rel=1e-12)

    def test_inverse_sqrt_power_law(self):
        geo = tet_from_spins(ALL_ONES)
        a7 = asym_alpha(ALL_ONES, 7, geo).amplitude
        for k in (14, 63, 175):
            assert asym_alpha(ALL_ONES, k, geo).amplitude / a7 == pytest.approx(
                (k / 7.0) ** -0.5, rel=1e-12
            )

    def test_regular_amplitude_value(self):
        geo = tet_from_spins(ALL_ONES)
        res = asym_alpha(ALL_ONES, 1, geo)
        expected = math.sqrt(1944.0) / (math.sqrt(48.0 * math.pi * geo.volume) * 9.0)
        assert res.amplitude == pytest.approx(expected, rel=1e-12)

    def test_odd_k_requires_alpha(self):
        with pytest.raises(KParityError):
            asym_alpha(ALL_HALVES, 3)


class TestAsymGamma:
    def test_sign_from_quadrangle_sum(self):
        geo = tet_from_spins(ALL_HALVES)
        res = asym_gamma(ALL_HALVES, 21, geo)
        # sum p = 6, so the sign is negative: angle carries a pi offset
        base = 0.25 * math.pi + phase(Parity.GAMMA, ALL_HALVES, 21, geo) + shift(
            Parity.ALPHA, ALL_HALVES, geo=geo
        )[1]
        assert res.angle == pytest.approx(base + math.pi, rel=1e-12)

    def test_amplitude_uses_triangle_product(self):
        geo = tet_from_spins(ALL_HALVES)
        t = triangle_sums(ALL_HALVES)
        res = asym_gamma(ALL_HALVES, 9, geo)
        n_alpha, _ = shift(Parity.ALPHA, ALL_HALVES, geo=geo)
        expected = n_alpha / (
            math.sqrt(48.0 * math.pi * 9 * geo.volume) * math.sqrt(float(saddle_coeff_c(t)))
        )
        assert res.amplitude == pytest.approx(expected, rel=1e-12)

    def test_even_k_rejected(self):
        with pytest.raises(KParityError):
            asym_gamma(ALL_HALVES, 4)

    def test_power_law(self):
        geo = tet_from_spins(ALL_HALVES)
        a21 = asym_gamma(ALL_HALVES, 21, geo).amplitude
        for k in (63, 189):
            assert asym_gamma(ALL_HALVES, k, geo).amplitude / a21 == pytest.approx(
                (k / 21.0) ** -0.5, rel=1e-12
            )


class TestAsymBeta:
    def test_even_k_rejected(self):
        with pytest.raises(KParityError):
            asym_beta(BETA_EUCLIDEAN, 8)

    def test_sign_parity(self):
        t = triangle_sums(BETA_EUCLIDEAN)
        bd = beta_decompose(BETA_EUCLIDEAN, t)
        assert (bd.v.twice + bd.v_prime.twice - bd.p.twice) // 2 % 2 == 1  # 4 + 4 - 5
        geo = tet_from_spins(BETA_EUCLIDEAN)
        res = asym_beta(BETA_EUCLIDEAN, 21, geo)
        _, psi = shift(Parity.BETA, BETA_EUCLIDEAN, geo)
        base = 0.25 * math.pi + phase(Parity.BETA, BETA_EUCLIDEAN, 21, geo) - psi
        assert res.angle == pytest.approx(base + math.pi, rel=1e-12)

    def test_pre_shift_two_term_form(self):
        geo = tet_from_spins(BETA_EUCLIDEAN)
        t = triangle_sums(BETA_EUCLIDEAN)
        bd = beta_decompose(BETA_EUCLIDEAN, t)
        w = bd.pbar.as_fraction() * bd.pbar_prime.as_fraction() - bd.v.as_fraction() * bd.v_prime.as_fraction()
        u = bd.v.as_fraction() + bd.v_prime.as_fraction() - bd.pbar.as_fraction() - bd.pbar_prime.as_fraction()
        a = 2.0 * float(saddle_coeff_c(t)) * float(u) + float(saddle_coeff_b(BETA_EUCLIDEAN)) * float(w)
        b = 24.0 * geo.volume * float(w)
        magnitude, psi = shift(Parity.BETA, BETA_EUCLIDEAN, geo)
        for x in (0.3, 1.7, 4.1):
            assert a * math.cos(x) + b * math.sin(x) == pytest.approx(
                magnitude * math.cos(x - psi), rel=1e-11
            )

    def test_power_law(self):
        geo = tet_from_spins(BETA_EUCLIDEAN)
        a21 = asym_beta(BETA_EUCLIDEAN, 21, geo).amplitude
        for k in (63, 189):
            assert asym_beta(BETA_EUCLIDEAN, k, geo).amplitude / a21 == pytest.approx(
                (k / 21.0) ** -0.5, rel=1e-12
            )


class TestRouting:
    def test_even_k_routes_to_alpha(self):
        for s in (ALL_HALVES, BETA_EUCLIDEAN):
            res = asym_for_scaled(s, 6)
            assert res.parity_used == "alpha"

    def test_odd_k_keeps_parity(self):
        assert asym_for_scaled(ALL_HALVES, 7).parity_used == "gamma"
        assert asym_for_scaled(BETA_EUCLIDEAN, 7).parity_used == "beta"
        assert asym_for_scaled(ALL_ONES, 7).parity_used == "alpha"


ENTRIES = [asym_standard, asym_for_scaled, asym_alpha, asym_beta, asym_gamma]
PER_PARITY = {asym_alpha: "alpha", asym_beta: "beta", asym_gamma: "gamma"}


def _outcome(entry, s, k):
    try:
        return repr(entry(s, k))
    except SixjError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda f: f.__name__)
class TestOneGate:
    """Every entry checks k >= 1, then the admissibility of k*s, then builds geometry."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("text", ["4 1 1 1 1 4", "1/2 1/2 3/2 1/2 5/2 3/2"])
    def test_triangle_violation_before_geometry(self, entry, text, k):
        # both sextuples are also non-Euclidean
        with pytest.raises(TriangleViolation):
            entry(SpinSextuple.parse(text.split()), k)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_has_one_message(self, entry, k):
        with pytest.raises(ValueError, match=f"^scale factor must be a positive integer, got {k}$"):
            entry(ALL_ONES, k)

    @pytest.mark.parametrize("k", [1.0, 2.0, 1.5, 0.5, -1.0, "3", None])
    def test_k_must_be_an_int(self, entry, k):
        # the type before the range: 0.5 and -1.0 are not ints either
        with pytest.raises(TypeError, match=f"^scale factor must be an int, got {type(k).__name__}$"):
            entry(ALL_ONES, k)


@pytest.mark.parametrize("entry", [asym_standard, asym_for_scaled], ids=lambda f: f.__name__)
def test_geo_of_another_sextuple_is_refused(entry):
    # the geometry of 2*s read as that of s gave amplitude 0.266, not 0.671
    with pytest.raises(ValueError, match=r"^geo has lengths \(2\.0, 2\.0, 2\.0, 2\.0, 2\.0, 2\.0\), "):
        entry(ALL_ONES, 3, tet_from_spins(ALL_ONES.scaled(2)))
    # a geometry built apart from s, of equal spins, is the geometry of s
    assert entry(ALL_ONES, 3, tet_from_spins(SpinSextuple.of(1, 1, 1, 1, 1, 1))) == entry(ALL_ONES, 3)


def forged(s: SpinSextuple) -> TetGeometry:
    """A geometry with the lengths of s, volume 1.0 and every exterior angle 1.0."""
    return TetGeometry(tuple(x / 2.0 for x in s.doubled()), 1.0, (1.0,) * 6, Fraction(1))


@pytest.mark.parametrize("entry, text", [
    (asym_for_scaled, "0 0 0 0 0 0"),  # alpha; ZeroDivisionError without the check
    (asym_for_scaled, "0 1/2 1/2 1/2 1/2 1/2"),  # beta; a zero fourth-root factor
    (asym_for_scaled, "1 1 3/2 1 1 3/2"),  # gamma, CM < 0; amplitude 0.501 without the check
    (asym_standard, "0 0 0 0 0 0"),
])
def test_forged_geo_of_a_non_euclidean_sextuple_is_refused(entry, text):
    s = SpinSextuple.parse(text.split())
    with pytest.raises(NonEuclideanError) as built:
        tet_from_spins(s)
    for geo in (None, forged(s)):
        with pytest.raises(NonEuclideanError) as refused:
            entry(s, 1, geo)
        assert str(refused.value) == str(built.value)


def test_the_gate_is_the_only_refusal():
    # every admissible sextuple with spins <= 3, its geometry passed (forged when there is
    # none): past the gate no formula raises, and every amplitude is finite and positive
    count = 0
    for d in itertools.product(range(7), repeat=6):
        try:
            _check(*_sums(d), "osp12")
        except AdmissibilityError:
            continue
        count += 1
        s = SpinSextuple(*map(HalfInt, d))
        try:
            geo, euclidean = tet_from_spins(s), True
        except NonEuclideanError:
            geo, euclidean = forged(s), False
        for k in (1, 2, 3):
            try:
                res = asym_for_scaled(s, k, geo)
            except NonEuclideanError:
                assert not euclidean, d
                continue
            assert 0.0 < res.amplitude < math.inf and math.isfinite(res.angle), (d, k)
    assert count == 17245


def test_parity_mismatch_comes_before_the_geo_check():
    with pytest.raises(KParityError):
        asym_gamma(ALL_ONES, 3, tet_from_spins(ALL_ONES.scaled(2)))


@pytest.mark.parametrize(
    "entry, s, k, parity",
    [
        (asym_beta, ALL_ONES, 3, "alpha"),
        (asym_alpha, ALL_HALVES, 3, "gamma"),
        (asym_gamma, ALL_HALVES, 4, "alpha"),
        (asym_beta, BETA_EUCLIDEAN, 8, "alpha"),
        (asym_gamma, BETA_EUCLIDEAN, 5, "beta"),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_parity_mismatch_names_formula_k_and_parity(entry, s, k, parity):
    message = rf"^{PER_PARITY[entry]} formula does not apply at k={k}: k\*s has {parity} parity$"
    with pytest.raises(KParityError, match=message):
        entry(s, k)


@pytest.mark.parametrize("entry", list(PER_PARITY), ids=lambda f: f.__name__)
def test_per_parity_entry_is_the_router_at_its_parity(entry):
    rng = random.Random(79)
    matched = 0
    sample = [s for parity in PER_PARITY.values() for s in random_admissible(rng, parity, n=20, max_twice=8)]
    for s in sample:
        for k in (1, 2, 3, 101):
            routed, mine = _outcome(asym_for_scaled, s, k), _outcome(entry, s, k)
            if f"parity_used='{PER_PARITY[entry]}'" in routed:
                assert mine == routed
                matched += 1
            elif routed.startswith("AsymptoticResult"):
                assert mine.startswith("KParityError: ")
    assert matched >= 10


class TestPointwiseConvergence:
    """Exact/asymptotic agreement on tetrahedra with non-regular angles.

    The all-equal-angle cases cannot detect a permuted edge-to-angle mapping;
    these sextuples have distinct exterior angles per edge, so pointwise
    ratios near 1 pin the mapping as well as the amplitudes.
    """

    def test_standard_scalene(self):
        from sixj import sixj_exact

        s = SpinSextuple.of(3, 4, 5, 4, 5, 3)  # six distinct exterior angles
        geo = tet_from_spins(s)
        assert len({round(t, 9) for t in geo.theta_ext}) == 6
        for k in (101, 301):
            ratio = asym_standard(s, k, geo).value / float(sixj_exact(s.scaled(k)))
            assert abs(ratio - 1.0) < 0.01

    def test_alpha_scalene(self):
        from sixj import sixj_super_exact

        s = SpinSextuple.of(3, 4, 5, 4, 5, 3)
        geo = tet_from_spins(s)
        for k in (101, 301):
            ratio = asym_alpha(s, k, geo).value / float(sixj_super_exact(s.scaled(k)))
            assert abs(ratio - 1.0) < 0.01

    def test_gamma_non_regular(self):
        from sixj import sixj_super_exact

        s = SpinSextuple.of(HALF, 1, 1, HALF, 1, 1)
        geo = tet_from_spins(s)
        for k in (101, 301):
            ratio = asym_gamma(s, k, geo).value / float(sixj_super_exact(s.scaled(k)))
            assert abs(ratio - 1.0) < 0.01

    def test_beta_pointwise(self):
        from sixj import sixj_super_exact

        geo = tet_from_spins(BETA_EUCLIDEAN)
        for k in (151, 301):
            ratio = asym_beta(BETA_EUCLIDEAN, k, geo).value / float(
                sixj_super_exact(BETA_EUCLIDEAN.scaled(k))
            )
            assert abs(ratio - 1.0) < 0.02


DOMAIN = 2**40  # k * max(2j) of the floating-point asymptotics


@st.composite
def doubled_spins_and_k(draw):
    """Doubled spins up to 2**20, Euclidean near a regular tetrahedron or drawn at random,
    and k on either side of the domain: at its edge, inside it or up to 64 times past it."""
    base = draw(st.integers(10, 5 * 2**20 // 6))
    near_regular = [base + draw(st.integers(-(base // 5), base // 5)) for _ in range(6)]
    d = draw(st.one_of(st.just(near_regular), st.lists(st.integers(0, 2**20), min_size=6, max_size=6)))
    if draw(st.booleans()):
        d = [x - x % 2 for x in d]  # integer spins: every k is SU(2)-admissible
    top = (DOMAIN - 1) // max(max(d), 1)
    k = draw(st.one_of(st.sampled_from([top, top + 1]), st.integers(1, top), st.integers(top + 1, 64 * top)))
    return d, k


@settings(max_examples=300, deadline=None)
@given(doubled_spins_and_k())
def test_answers_are_finite_with_an_angle_inside_the_domain(case):
    # an answer keeps its phase and a non-zero envelope; past the domain the entries refuse
    d, k = case
    s = SpinSextuple(*(HalfInt(x) for x in d))
    for entry in (asym_standard, asym_for_scaled):
        try:
            res = entry(s, k)
        except (SixjError, ValueError):
            continue
        assert all(map(math.isfinite, (res.amplitude, res.angle, res.value))), (d, k, res)
        assert res.amplitude > 0.0 and abs(res.angle) < 2**44, (d, k, res)
