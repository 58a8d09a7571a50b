import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sixj import (
    ExactSymbol,
    HalfInt,
    IntegralityViolation,
    Parity,
    SpinSextuple,
    TriangleViolation,
    sixj_exact,
    sixj_super_exact,
)
from sixj import asymptotics, symbols
from sixj.exact import factorial_symbol
from sixj.symbols import _alternating_sum, _brackets, _check_cost, _super_prefactor_args, _symbol
from sixj.triangles import _sums, beta_decompose, classify_parity, is_admissible, triangle_sums
from cores import frontal_sign, monomial4
from oracles import (
    frontal_sign_closed_form,
    parts,
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
            assert parts(sixj_exact(SpinSextuple.of(a, b, c, 0, c, b))) == parts(sixj_zero_spin(a, b, c))

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
            assert parts(sixj_exact(s)) == parts(racah_sixj([x.as_fraction() for x in s.spins]))
            checked += 1


class TestSuperSixj:
    def test_all_halves(self):
        s = SpinSextuple.of(*([HALF] * 6))
        assert sixj_super_exact(s) == ExactSymbol(Fraction(-3, 2), Fraction(1))

    def test_all_ones_alpha(self):
        s = SpinSextuple.of(1, 1, 1, 1, 1, 1)
        assert sixj_super_exact(s) == ExactSymbol(Fraction(1, 2), Fraction(1))
        assert parts(sixj_super_exact(s)) == parts(super_sixj_direct([1, 1, 1, 1, 1, 1]))

    def test_matches_direct_oracle_on_randoms(self):
        rng = random.Random(42)
        for s in random_admissible(rng, n=250, max_twice=9):
            assert parts(sixj_super_exact(s)) == parts(
                super_sixj_direct([x.as_fraction() for x in s.spins])
            )

    def test_even_k_collapse_to_alpha_path(self):
        rng = random.Random(43)
        for parity in ("beta", "gamma"):
            for s in random_admissible(rng, parity=parity, n=40, max_twice=7):
                for k in (2, 4):
                    scaled = s.scaled(k)
                    generic = sixj_super_exact(scaled)
                    special = super_sixj_alpha_direct([x.as_fraction() for x in scaled.spins])
                    assert parts(generic) == parts(special)

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
        assert factorial_symbol(1, nums, dens, [], [], 1).squared() == Fraction(1, 331776)

    def test_alpha_all_ones(self):
        t = triangle_sums(SpinSextuple.of(1, 1, 1, 1, 1, 1))
        assert classify_parity(t) is Parity.ALPHA
        args = _super_prefactor_args(*t.doubled())
        assert factorial_symbol(1, *args, [], [], 1).squared() == Fraction(1, 1296)

    def test_gamma_all_halves(self):
        t = triangle_sums(SpinSextuple.of(*([HALF] * 6)))
        assert classify_parity(t) is Parity.GAMMA
        args = _super_prefactor_args(*t.doubled())
        assert factorial_symbol(1, *args, [], [], 1).squared() == Fraction(1, 16)

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
            assert factorial_symbol(1, nums, dens, [], [], 1).squared() == explicit

    def test_unreduced_int_ratio_matches_fraction(self):
        # the int ratio num/den is passed unreduced, as two ints
        rng = random.Random(51)
        for s in random_admissible(rng, n=100):
            nums, dens = _super_prefactor_args(*triangle_sums(s).doubled())
            num, den = rng.randint(-(10**9), 10**9), rng.randint(1, 10**6)
            value = factorial_symbol(6 * num, nums, dens, [], [], 6 * den)
            assert parts(value) == parts(factorial_symbol(num, nums, dens, [], [], den))
            product = Fraction(
                math.prod(map(math.factorial, nums)), math.prod(map(math.factorial, dens))
            )
            assert value.squared() == Fraction(num, den) ** 2 * product
            assert (value.coeff > 0) == (num * den > 0)

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
        # the numerator times lo! / [prod (hi-w_i)! prod (m_j-lo)!], by hand and by _symbol
        num = _alternating_sum(w, m, c0, c1)
        lo, hi = max(w), min(m)
        den = math.prod(math.factorial(hi - x) for x in w) * math.prod(math.factorial(x - lo) for x in m)
        value = Fraction(num * math.factorial(lo), den)
        assert value == _term_by_term(w, m, c0, c1)
        assert _symbol(num, w, m, [], [], 1) == ExactSymbol(value, Fraction(1))

    def test_empty_range_is_zero(self):
        assert _alternating_sum([5, 1, 1, 1], [4, 6, 6], 1, 1) == 0

    @pytest.mark.parametrize("k", [51, 101])
    @pytest.mark.parametrize("spins", [(1, 1, 1, 1, 1, 1), (1, 2, 2, 2, 1, 2)])
    def test_su2_matches_racah_oracle_at_large_k(self, k, spins):
        scaled = SpinSextuple.of(*spins).scaled(k)
        assert parts(sixj_exact(scaled)) == parts(racah_sixj([x.as_fraction() for x in scaled.spins]))

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
        assert parts(sixj_super_exact(scaled)) == parts(
            super_sixj_direct([x.as_fraction() for x in scaled.spins])
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


def _cost_args(s: SpinSextuple) -> tuple:
    """The arguments both evaluators pass _check_cost on s: the kernel's w and m,
    floor(v + 1/2) and floor(p + 1/2), and its range max(w) .. min(m)."""
    w, m = _brackets(*_sums(s.doubled()))
    return w, m, max(w), min(m)


@st.composite
def osp_sextuples(draw, max_twice=80):
    """OSP(1|2)-admissible sextuples with doubled spins <= max_twice, face by face."""
    a1, a2, b1 = (draw(st.integers(0, max_twice)) for _ in range(3))
    a3 = draw(st.integers(abs(a1 - a2), a1 + a2))
    b2 = draw(st.integers(abs(b1 - a3), b1 + a3))
    lo, hi = max(abs(a1 - b2), abs(b1 - a2)), min(a1 + b2, b1 + a2, max_twice)
    assume(a3 <= max_twice and b2 <= max_twice and lo <= hi)
    s = SpinSextuple(*(HalfInt(x) for x in (a1, a2, a3, b1, b2, draw(st.integers(lo, hi)))))
    assume(is_admissible(s, "osp12"))
    return s


# the shapes the bound was sized on, measured one process at a time: many terms
# (63 s at the bound), and one term with large factorials (2 s or less, under 75 MB)
CALIBRATION = [
    ((1, 1, 1, 1, 1, 1), 64051, 64052),
    ((1, 1, 0, 1, 1, 0), 6243755, 6243756),  # factorials up to 2N + 1 = n - 1
    ((HALF,) * 6, 128102, 128104),  # all halves at 2k: the spins of all ones at k
    ((0, 0, 0, 1, 1, 1), 6243755, 6243756),  # factorials up to 2N + 1 = n - 1
]


class TestCostBound:
    """The exact evaluation's cost bound, checked by calculation: no test here evaluates near it."""

    @pytest.mark.parametrize("spins, accepted, refused", CALIBRATION)
    def test_sized_on_the_calibration_shapes(self, spins, accepted, refused):
        base = SpinSextuple.of(*spins)
        _check_cost(*_cost_args(base.scaled(accepted)))
        with pytest.raises(ValueError, match="^spins are too large for exact evaluation$"):
            _check_cost(*_cost_args(base.scaled(refused)))

    def test_accepted_evaluations_lie_inside_the_asymptotic_domain(self):
        # w_i >= k v_i / 2 and v_i >= twice each doubled spin of its face, so max(w) >= k max(2j);
        # n - 1 >= max(w) + 1 and an accepted cost has 1001 n log2 n <= MAX_EXACT_COST. So every
        # accepted k * max(2j) is below 2**25, far inside the asymptotics' 2**40, and scan, which
        # checks the cost of every k first, never meets the asymptotic refusal
        n = 12487512  # the largest n with 1001 n log2 n <= MAX_EXACT_COST
        assert 1001 * n * n.bit_length() <= symbols.MAX_EXACT_COST < 1001 * (n + 1) * (n + 1).bit_length()
        assert n - 2 < 2**25 < asymptotics._DOMAIN
        for spins, accepted, _ in CALIBRATION:
            s = SpinSextuple.of(*spins).scaled(accepted)
            assert max(s.doubled()) <= max(_cost_args(s)[0]) <= n - 2
            assert max(s.doubled()) <= 1.25 * 10**7

    @pytest.mark.parametrize("evaluate, spins", [
        (sixj_exact, (101,) * 6),
        (sixj_super_exact, (Fraction(101, 2),) * 6),
        (sixj_exact, (10**12, 10**12, 0, 10**12, 10**12, 0)),
    ])
    def test_evaluators_refuse_before_any_work(self, monkeypatch, evaluate, spins):
        monkeypatch.setattr(symbols, "MAX_EXACT_COST", 10**6)
        monkeypatch.setattr(symbols, "factorial_symbol", None)  # a call would raise TypeError
        with pytest.raises(ValueError, match="^spins are too large for exact evaluation$"):
            evaluate(SpinSextuple.of(*spins))

    def test_cost_at_the_bound_is_accepted(self, monkeypatch):
        s = SpinSextuple.of(1, 1, 1, 1, 1, 1).scaled(11)
        cost = _check_cost(*_cost_args(s))
        assert cost == (12 + 1000) * 45 * 6  # 12 terms, n - 1 = min(m) = 44
        monkeypatch.setattr(symbols, "MAX_EXACT_COST", cost)
        assert parts(sixj_exact(s)) == parts(racah_sixj([x.as_fraction() for x in s.spins]))
        monkeypatch.setattr(symbols, "MAX_EXACT_COST", symbols.MAX_EXACT_COST - 1)
        with pytest.raises(ValueError):
            sixj_exact(s)

    @given(st.one_of(su2_sextuples().map(lambda s: ("su2", s)), osp_sextuples().map(lambda s: ("super", s))))
    @example(("su2", SpinSextuple.of(0, 0, 0, 1, 1, 1)))  # (2N + 1)! in the prefactor, N = 1
    @example(("su2", SpinSextuple.of(1, 1, 0, 1, 1, 0)))
    @example(("super", SpinSextuple.of(*[HALF] * 6)))
    @settings(max_examples=200, deadline=None)
    def test_n_bounds_every_factorial_argument(self, case):
        # n - 1 >= every argument _symbol and the prefactor lists pass, and every factor
        # of the loop; for SU(2) the bound is attained, so the estimate is tight
        kind, s = case
        seen = {}

        def check(w, m, lo, hi, spent=0):
            seen["kernel"], seen["cost"] = (w, m, lo, hi), _check_cost(w, m, lo, hi, spent)
            return seen["cost"]

        def record(num, *lists_and_den):
            seen["args"] = [x for args in lists_and_den[:4] for x in args]
            return factorial_symbol(num, *lists_and_den)

        with mock.patch.object(symbols, "_check_cost", check), \
                mock.patch.object(symbols, "factorial_symbol", record):
            (sixj_exact if kind == "su2" else sixj_super_exact)(s)
        assume("args" in seen)  # an exact zero builds no factorial
        w, m, lo, hi = seen["kernel"]
        loop = [hi, hi - min(w), max(m) - lo] if hi > lo else []
        n = max(seen["args"] + loop) + 1
        estimate = (hi - lo + 1001) * n * n.bit_length()
        assert seen["cost"] == estimate if kind == "su2" else seen["cost"] >= estimate


def _args_by_comprehension(v, p, lift):
    """The prefactor lists as written before they were unrolled: (p_j - v_i)//2 over the
    twelve pairs, p outer and v inner, and (v_i + lift)//2."""
    return [(pj - vi) // 2 for pj in p for vi in v], [(vi + lift) // 2 for vi in v]


DOUBLED_SUM = st.integers(-5, 10**7)


class TestHandWrittenLists:
    """The unrolled argument lists equal their comprehension definitions, entry by entry."""

    @given(st.tuples(*[DOUBLED_SUM] * 4), st.tuples(*[DOUBLED_SUM] * 3), st.integers(1, 10**5))
    @example((0, 1, 2, 3), (4, 5, 6), 1)
    @example((2, 3, 5, 7), (11, 13, 17), 2)
    @settings(max_examples=300, deadline=None)
    def test_brackets(self, v, p, k):
        want = [(k * x + 1) // 2 for x in v], [(k * x + 1) // 2 for x in p]
        assert _brackets(v, p, k) == want
        assert _brackets(v, p) == ([(x + 1) // 2 for x in v], [(x + 1) // 2 for x in p])

    @given(st.tuples(*[DOUBLED_SUM] * 4), st.tuples(*[DOUBLED_SUM] * 3))
    @example((1, 2, 4, 8), (16, 32, 64))
    @settings(max_examples=300, deadline=None)
    def test_prefactor_args(self, v, p):
        assert _super_prefactor_args(v, p) == _args_by_comprehension(v, p, 1)
        assert _super_prefactor_args(v, p, 2) == _args_by_comprehension(v, p, 2)

    @given(st.one_of(su2_sextuples().map(lambda s: ("su2", s)), osp_sextuples().map(lambda s: ("super", s))))
    @example(("su2", SpinSextuple.of(1, 2, 2, 2, 1, 2)))
    @example(("super", SpinSextuple.of(1, 3 * HALF, 3 * HALF, 3 * HALF, 3 * HALF, 1)))  # beta
    @settings(max_examples=200, deadline=None)
    def test_evaluators_pass_the_defined_lists(self, case):
        # SU(2): (m_j - w_i)! over (w_i + 1)!; super: floor(p_j - v_i)! over floor(v_i + 1/2)!;
        # both: the head lo! over (hi - w_i)! and (m_j - lo)!
        kind, s = case
        seen = []
        v, p = _sums(s.doubled())
        w, m = _brackets(v, p)
        lo, hi = max(w), min(m)

        def record(num, *lists_and_den):
            seen.append(lists_and_den)
            return factorial_symbol(num, *lists_and_den)

        with mock.patch.object(symbols, "factorial_symbol", record):
            value = (sixj_exact if kind == "su2" else sixj_super_exact)(s)
        if kind == "su2":
            prefactor = [mj - wi for mj in m for wi in w], [wi + 1 for wi in w], 1
        else:
            prefactor = *_args_by_comprehension(v, p, 1), 4
        head = [lo], [hi - wi for wi in w] + [mj - lo for mj in m]
        nums, dens, den = prefactor
        assert seen == [(nums, dens, *head, den)]
        # the range an evaluator passes is the one the kernel and _symbol read from w and m
        c = (1, 1) if kind == "su2" else monomial4(s)[1]
        num = _alternating_sum(w, m, *c)
        assert num == _alternating_sum(w, m, *c, lo, hi)
        if kind == "super" and frontal_sign(s, 1) < 0:
            num = -num
        assert parts(value) == parts(_symbol(num, w, m, nums, dens, den))
