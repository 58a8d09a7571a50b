import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sixj import (
    EmptySumWarning,
    ExactSymbol,
    HalfInt,
    IntegralityViolation,
    Parity,
    ShiftViolation,
    SpinSextuple,
    TriangleViolation,
    sixj_exact,
    sixj_super_exact,
)
from sixj import symbols
from sixj.symbols import _alternating_sum, _check_cost, _prefactor_symbol, _super_prefactor_args
from sixj.triangles import _sums, beta_decompose, classify_parity, is_admissible, triangle_sums
from cores import frontal_sign, monomial4
from oracles import (
    frontal_sign_closed_form,
    racah_sixj,
    random_admissible,
    sixj_zero_spin,
    super_monomial,
    super_sixj_alpha_direct,
    super_sixj_direct,
)

HALF = Fraction(1, 2)


def checked_monomial4(s):
    """cores.monomial4(s), after asserting that it is 4 x the oracle's coefficients."""
    parity, c4 = monomial4(s)
    assert c4 == tuple(4 * c for c in super_monomial([x.as_fraction() for x in s.spins])), s
    return parity, c4


class TestStandardSixj:
    def test_regular_unit(self):
        assert sixj_exact(SpinSextuple.of(1, 1, 1, 1, 1, 1)) == ExactSymbol(Fraction(1, 6), Fraction(1))

    def test_zero_spin_closed_form(self):
        val = sixj_exact(SpinSextuple.of(1, 1, 1, 0, 1, 1))
        assert val == ExactSymbol(Fraction(-1, 3), Fraction(1))
        for a, b, c in [(1, 2, 3), (2, 2, 2), (HALF, HALF, 1), (Fraction(3, 2), 2, HALF)]:
            if not is_admissible(SpinSextuple.of(a, b, c, 0, c, b), "su2"):
                continue
            assert sixj_exact(SpinSextuple.of(a, b, c, 0, c, b)) == sixj_zero_spin(a, b, c)

    def test_triangle_violation_propagates(self):
        with pytest.raises(TriangleViolation):
            sixj_exact(SpinSextuple.of(4, 1, 1, 1, 1, 4))

    def test_matches_racah_oracle_on_randoms(self):
        rng = random.Random(41)
        checked = 0
        while checked < 150:
            s = random_admissible(rng, n=1, max_twice=10)[0]
            if not is_admissible(s, "su2"):
                continue
            assert sixj_exact(s) == racah_sixj([x.as_fraction() for x in s.spins])
            checked += 1


class TestSuperSixj:
    def test_all_halves(self):
        s = SpinSextuple.of(*([HALF] * 6))
        assert sixj_super_exact(s) == ExactSymbol(Fraction(-3, 2), Fraction(1))

    def test_all_ones_alpha(self):
        s = SpinSextuple.of(1, 1, 1, 1, 1, 1)
        assert sixj_super_exact(s) == ExactSymbol(Fraction(1, 2), Fraction(1))
        assert sixj_super_exact(s) == super_sixj_direct([1, 1, 1, 1, 1, 1])

    def test_matches_direct_oracle_on_randoms(self):
        rng = random.Random(42)
        for s in random_admissible(rng, n=250, max_twice=9):
            assert sixj_super_exact(s) == super_sixj_direct(
                [x.as_fraction() for x in s.spins]
            )

    def test_even_k_collapse_to_alpha_path(self):
        rng = random.Random(43)
        for parity in ("beta", "gamma"):
            for s in random_admissible(rng, parity=parity, n=40, max_twice=7):
                for k in (2, 4):
                    scaled = s.scaled(k)
                    generic = sixj_super_exact(scaled)
                    special = super_sixj_alpha_direct([x.as_fraction() for x in scaled.spins])
                    assert generic == special

    def test_inadmissible_rejected(self):
        with pytest.raises(TriangleViolation):
            sixj_super_exact(SpinSextuple.of(4, 1, 1, 1, 1, 4))


class TestFrontalSign:
    def test_alpha_always_plus(self):
        rng = random.Random(44)
        for s in random_admissible(rng, parity="alpha", n=100):
            for k in (1, 2, 3):
                assert frontal_sign(s, k) == 1

    def test_all_halves_minus(self):
        s = SpinSextuple.of(*([HALF] * 6))
        assert frontal_sign(s, 1) == -1
        assert frontal_sign_closed_form([HALF] * 6) == -1

    def test_even_k_plus(self):
        rng = random.Random(45)
        for s in random_admissible(rng, n=100):
            assert frontal_sign(s, 2) == 1

    @pytest.mark.parametrize("parity", ["alpha", "beta", "gamma"])
    def test_matches_closed_form_for_odd_k(self, parity):
        rng = random.Random(46)
        for s in random_admissible(rng, parity=parity, n=200):
            closed = frontal_sign_closed_form([x.as_fraction() for x in s.spins])
            for k in (1, 3, 5):
                assert frontal_sign(s, k) == closed

    def test_matches_closed_form_on_spin3_grid(self):
        # the asymptotic router takes its global sign from frontal_sign; the
        # per-parity closed forms must agree on every odd k
        count = 0
        for d in itertools.product(range(7), repeat=6):
            s = SpinSextuple(*map(HalfInt, d))
            if not is_admissible(s, "osp12"):
                continue
            closed = frontal_sign_closed_form([Fraction(x, 2) for x in d])
            assert frontal_sign(s, 1) == frontal_sign(s, 3) == closed, d
            count += 1
        assert count == 17245


class TestMonomial:
    def test_alpha_is_one(self):
        s = SpinSextuple.of(1, 1, 1, 1, 1, 1)
        parity, (c0, c1) = checked_monomial4(s)
        assert parity is Parity.ALPHA
        for t_index in range(5):
            assert c0 + c1 * t_index == 4

    def test_gamma_all_halves_at_zero(self):
        s = SpinSextuple.of(*([HALF] * 6))
        parity, (c0, _) = checked_monomial4(s)
        assert parity is Parity.GAMMA and c0 == 4 * 5

    def test_beta_constant_positive_integer(self):
        rng = random.Random(47)
        for s in random_admissible(rng, parity="beta", n=200):
            parity, (c0, _) = checked_monomial4(s)
            assert parity is Parity.BETA
            assert c0 % 4 == 0 and c0 > 0

    def test_gamma_constant_positive_integer(self):
        rng = random.Random(48)
        for s in random_admissible(rng, parity="gamma", n=200):
            parity, (c0, _) = checked_monomial4(s)
            assert parity is Parity.GAMMA
            assert c0 % 4 == 0 and c0 > 0

    @pytest.mark.parametrize("parity", ["beta", "gamma"])
    def test_rearranged_form_identity(self, parity):
        # the shifted regrouping c1*(t+1) + (c0 - c1) must agree at small t
        rng = random.Random(49)
        for s in random_admissible(rng, parity=parity, n=150):
            p, (c0, c1) = checked_monomial4(s)
            assert p.value == parity
            for t_index in range(4):
                assert c0 + c1 * t_index == c1 * (t_index + 1) + (c0 - c1)


class TestPrefactors:
    def test_standard_all_ones(self):
        # sixj_exact's arguments: (p_j - v_i)! over (v_i + 1)!
        v, p = triangle_sums(SpinSextuple.of(1, 1, 1, 1, 1, 1)).doubled()
        nums = [(pj - vi) // 2 for pj in p for vi in v]
        dens = [vi // 2 + 1 for vi in v]
        assert _prefactor_symbol(nums, dens, 1, 1).squared() == Fraction(1, 331776)

    def test_alpha_all_ones(self):
        t = triangle_sums(SpinSextuple.of(1, 1, 1, 1, 1, 1))
        assert classify_parity(t) is Parity.ALPHA
        args = _super_prefactor_args(*t.doubled())
        assert _prefactor_symbol(*args, 1, 1).squared() == Fraction(1, 1296)

    def test_gamma_all_halves(self):
        t = triangle_sums(SpinSextuple.of(*([HALF] * 6)))
        assert classify_parity(t) is Parity.GAMMA
        args = _super_prefactor_args(*t.doubled())
        assert _prefactor_symbol(*args, 1, 1).squared() == Fraction(1, 16)

    def test_beta_matches_explicit_product(self):
        # generic integer-part prefactor equals the twelve-factorial split form
        rng = random.Random(50)
        for s in random_admissible(rng, parity="beta", n=100):
            t = triangle_sums(s)
            bd = beta_decompose(s, t)
            f = lambda x: math.factorial(int(x))
            p, v, vp = bd.p.as_fraction(), bd.v.as_fraction(), bd.v_prime.as_fraction()
            pb, pbp = bd.pbar.as_fraction(), bd.pbar_prime.as_fraction()
            vb, vbp = bd.vbar.as_fraction(), bd.vbar_prime.as_fraction()
            explicit = Fraction(
                f(p - v) * f(p - vp) * f(p - vb - HALF) * f(p - vbp - HALF)
                * f(pb - vb) * f(pb - vbp) * f(pb - v - HALF) * f(pb - vp - HALF)
                * f(pbp - vb) * f(pbp - vbp) * f(pbp - v - HALF) * f(pbp - vp - HALF),
                f(v) * f(vp) * f(vb + HALF) * f(vbp + HALF),
            )
            nums, dens = _super_prefactor_args(*t.doubled())
            product = Fraction(
                math.prod(map(math.factorial, nums)), math.prod(map(math.factorial, dens))
            )
            assert product == explicit
            assert _prefactor_symbol(nums, dens, 1, 1).squared() == explicit

    def test_unreduced_int_ratio_matches_fraction(self):
        # the evaluators pass the kernel's (num, den) unreduced, as two ints
        rng = random.Random(51)
        for s in random_admissible(rng, n=100):
            nums, dens = _super_prefactor_args(*triangle_sums(s).doubled())
            num, den = rng.randint(-(10**9), 10**9), rng.randint(1, 10**6)
            value = _prefactor_symbol(nums, dens, 6 * num, 6 * den)
            assert value == _prefactor_symbol(nums, dens, num, den)
            product = Fraction(
                math.prod(map(math.factorial, nums)), math.prod(map(math.factorial, dens))
            )
            assert value.squared() == Fraction(num, den) ** 2 * product
            assert (value.coeff > 0) == (num * den > 0)

    def test_shift_violation_on_wrong_data(self):
        s = SpinSextuple.of(2, HALF, HALF, HALF, HALF, 2)
        with pytest.raises(ShiftViolation):
            _super_prefactor_args(*triangle_sums(s).doubled())

    def test_standard_rejects_half_integer_triangles(self):
        # the SU(2) pipeline rejects half-integer triangle sums before any prefactor
        s = SpinSextuple.of(*([HALF] * 6))
        with pytest.raises(IntegralityViolation):
            sixj_exact(s)


def _term_by_term(w, m, c0, c1) -> Fraction:
    """The kernel's defining sum, one Fraction per term."""
    total = Fraction(0)
    for t in range(max(w), min(m) + 1):
        den = math.prod(math.factorial(t - x) for x in w)
        den *= math.prod(math.factorial(x - t) for x in m)
        total += Fraction((-1) ** t * math.factorial(t) * (c0 + c1 * t), den)
    return total


@st.composite
def kernel_inputs(draw):
    """(w, m, c0, c1) with a non-empty range lo = max(w) <= t <= hi = min(m)."""
    lo = draw(st.integers(0, 40))
    hi = lo + draw(st.integers(0, 12))
    w = draw(st.permutations([lo] + [draw(st.integers(0, lo)) for _ in range(3)]))
    m = draw(st.permutations([hi] + [draw(st.integers(hi, hi + 20)) for _ in range(2)]))
    c1 = draw(st.integers(-30, 30))
    if draw(st.booleans()):
        c0 = draw(st.integers(-60, 60))
    else:  # root of the monomial inside the range: it changes sign there
        c0 = -c1 * draw(st.integers(lo, hi))
    return w, m, c0, c1


class TestAlternatingSum:
    @given(kernel_inputs())
    @example(([4, 1, 0, 2], [4, 9, 5], 3, -2))  # single term, even lo
    @example(([7, 7, 3, 0], [7, 8, 12], -5, 1))  # single term, odd lo
    @example(([3, 1, 0, 2], [9, 11, 10], 12, -2))  # sign change at t = 6
    @example(([5, 2, 5, 0], [14, 9, 16], 1, 1))  # the SU(2) monomial, odd lo
    @settings(max_examples=300, deadline=None)
    def test_matches_term_by_term_sum(self, args):
        w, m, c0, c1 = args
        num, den = _alternating_sum(w, m, c0, c1)
        assert den > 0
        assert Fraction(num, den) == _term_by_term(w, m, c0, c1)

    def test_empty_range_is_zero(self):
        assert _alternating_sum([5, 1, 1, 1], [4, 6, 6], 1, 1) == (0, 1)

    def test_hand_built_empty_range_warns(self, monkeypatch):
        # admissibility excludes empty ranges; bypass it to reach the guard
        monkeypatch.setattr(symbols, "_check", lambda v, p, algebra: Parity.ALPHA)
        s = SpinSextuple.of(4, 1, 1, 1, 1, 4)  # max floor(v + 1/2) = 9 > min floor(p + 1/2) = 7
        with pytest.warns(EmptySumWarning):
            assert sixj_super_exact(s) == ExactSymbol.zero()

    @pytest.mark.parametrize("k", [51, 101])
    @pytest.mark.parametrize("spins", [(1, 1, 1, 1, 1, 1), (1, 2, 2, 2, 1, 2)])
    def test_su2_matches_racah_oracle_at_large_k(self, k, spins):
        scaled = SpinSextuple.of(*spins).scaled(k)
        assert sixj_exact(scaled) == racah_sixj([x.as_fraction() for x in scaled.spins])

    @pytest.mark.parametrize("k", [51, 101])
    @pytest.mark.parametrize(
        "parity, spins",
        [
            ("alpha", (1, 1, 1, 1, 1, 1)),
            ("beta", (1, 3 * HALF, 3 * HALF, 3 * HALF, 3 * HALF, 1)),
            ("gamma", (HALF,) * 6),
            ("gamma", (HALF, HALF, HALF, 3 * HALF, 3 * HALF, 3 * HALF)),
        ],
    )
    def test_super_matches_direct_oracle_at_large_k(self, k, parity, spins):
        scaled = SpinSextuple.of(*spins).scaled(k)
        assert classify_parity(triangle_sums(scaled)).value == parity
        assert sixj_super_exact(scaled) == super_sixj_direct(
            [x.as_fraction() for x in scaled.spins]
        )


def _triangle_third(draw, a, b):
    """A doubled third side c with |a-b| <= c <= a+b and a+b+c even."""
    return abs(a - b) + 2 * draw(st.integers(0, min(a, b)))


@st.composite
def su2_sextuples(draw, max_twice=80):
    """SU(2)-admissible sextuples with doubled spins <= max_twice, face by face."""
    a1, a2 = draw(st.integers(0, max_twice)), draw(st.integers(0, max_twice))
    a3 = _triangle_third(draw, a1, a2)
    b1 = draw(st.integers(0, max_twice))
    b2 = _triangle_third(draw, b1, a3)
    # J3 closes the faces (j1, J2, J3) and (J1, j2, J3); the parities agree
    lo = max(abs(a1 - b2), abs(b1 - a2))
    hi = min(a1 + b2, b1 + a2, max_twice)
    assume(a3 <= max_twice and b2 <= max_twice and lo <= hi)
    b3 = lo + 2 * draw(st.integers(0, (hi - lo) // 2))
    return SpinSextuple(*(HalfInt(x) for x in (a1, a2, a3, b1, b2, b3)))


class TestSympyOracle:
    @given(su2_sextuples())
    @settings(max_examples=60, deadline=None)
    def test_su2_matches_sympy_wigner_6j(self, s):
        sympy = pytest.importorskip("sympy")
        from sympy.physics.wigner import wigner_6j

        assert is_admissible(s, "su2")
        ref = wigner_6j(*(sympy.Rational(x.twice, 2) for x in s.spins))
        value = sixj_exact(s)
        square = value.squared()
        assert ref**2 == sympy.Rational(square.numerator, square.denominator)
        assert sympy.sign(ref) == value.sign


def _cost_args(s: SpinSextuple) -> tuple[int, int]:
    """(terms, largest factorial argument + 1) of the kernel on s, whose w and m are
    floor(v + 1/2) and floor(p + 1/2) for both evaluators."""
    v, p = _sums(s.doubled())
    w, m = [(x + 1) // 2 for x in v], [(x + 1) // 2 for x in p]
    return min(m) - max(w) + 1, max(m) + 1


class TestCostBound:
    """The exact evaluation's cost bound, checked by calculation: no test here evaluates near it."""

    @pytest.mark.parametrize("spins, accepted, refused", [
        # the two shapes the bound was sized on: many terms, and one term with large factorials
        ((1, 1, 1, 1, 1, 1), 51200, 51300),
        ((1, 1, 0, 1, 1, 0), 757000, 758000),
        ((HALF,) * 6, 102400, 102600),  # all halves at 2k: the spins of all ones at k
    ])
    def test_sized_on_the_calibration_shapes(self, spins, accepted, refused):
        base = SpinSextuple.of(*spins)
        _check_cost(*_cost_args(base.scaled(accepted)))
        with pytest.raises(ValueError, match="^spins are too large for exact evaluation$"):
            _check_cost(*_cost_args(base.scaled(refused)))

    @pytest.mark.parametrize("evaluate, spins", [
        (sixj_exact, (101,) * 6),
        (sixj_super_exact, (Fraction(101, 2),) * 6),
        (sixj_exact, (10**12, 10**12, 0, 10**12, 10**12, 0)),
    ])
    def test_evaluators_refuse_before_any_work(self, monkeypatch, evaluate, spins):
        monkeypatch.setattr(symbols, "MAX_EXACT_COST", 10**6)
        monkeypatch.setattr(symbols, "_prefactor_symbol", None)  # a call would raise TypeError
        with pytest.raises(ValueError, match="^spins are too large for exact evaluation$"):
            evaluate(SpinSextuple.of(*spins))

    def test_cost_at_the_bound_is_accepted(self, monkeypatch):
        s = SpinSextuple.of(1, 1, 1, 1, 1, 1).scaled(11)
        terms, n = _cost_args(s)
        assert (terms, n) == (12, 45)
        monkeypatch.setattr(symbols, "MAX_EXACT_COST", (terms + 3000) * n * n.bit_length())
        assert sixj_exact(s) == racah_sixj([x.as_fraction() for x in s.spins])
        monkeypatch.setattr(symbols, "MAX_EXACT_COST", symbols.MAX_EXACT_COST - 1)
        with pytest.raises(ValueError):
            sixj_exact(s)
