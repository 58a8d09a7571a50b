import enum
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixj import (
    HalfInt,
    IntegralityViolation,
    Parity,
    ParityViolation,
    SpinSextuple,
    TriangleViolation,
)
from sixj.halfint import _twice_of
from sixj.triangles import (
    _FACES,
    TriangleData,
    _sums,
    beta_decompose,
    check_admissible,
    classify_parity,
    is_admissible,
    rescale,
    triangle_sums,
)
from oracles import random_admissible

H = HalfInt.of
HALF = Fraction(1, 2)


def hx(*vals):
    return tuple(H(Fraction(v)) for v in vals)


class TestTriangleSums:
    def test_faces_are_the_triangle_sums(self):
        # the geometry's face check reads _FACES; admissibility reads _sums
        d = (1, 10, 100, 1000, 10000, 100000)
        assert tuple(sum(d[i] for i in face) for face in _FACES) == _sums(d)[0]

    def test_all_ones(self):
        t = triangle_sums(SpinSextuple.of(1, 1, 1, 1, 1, 1))
        assert t.v == hx(3, 3, 3, 3)
        assert t.p == hx(4, 4, 4)

    def test_all_halves(self):
        t = triangle_sums(SpinSextuple.of(*([HALF] * 6)))
        assert t.v == hx(HALF * 3, HALF * 3, HALF * 3, HALF * 3)
        assert t.p == hx(2, 2, 2)

    def test_mixed(self):
        t = triangle_sums(SpinSextuple.of(HALF, 1, 1, 1, 1, HALF))
        assert t.v == hx(Fraction(5, 2), Fraction(5, 2), 3, 2)

    def test_p_sum_equals_v_sum(self):
        rng = random.Random(31)
        for _ in range(500):
            s = SpinSextuple(*(HalfInt(rng.randint(0, 14)) for _ in range(6)))
            t = triangle_sums(s)
            assert sum(x.twice for x in t.p) == sum(x.twice for x in t.v)


class TestAdmissibility:
    def test_all_ones_su2(self):
        check_admissible(triangle_sums(SpinSextuple.of(1, 1, 1, 1, 1, 1)), "su2")

    def test_triangle_violation(self):
        s = SpinSextuple.of(2, HALF, HALF, HALF, HALF, 2)
        with pytest.raises(TriangleViolation):
            check_admissible(triangle_sums(s), "osp12")

    def test_su2_rejects_half_integer_perimeter(self):
        s = SpinSextuple.of(*([HALF] * 6))
        with pytest.raises(IntegralityViolation):
            check_admissible(triangle_sums(s), "su2")
        check_admissible(triangle_sums(s), "osp12")

    def test_parity_violation_on_hand_built_data(self):
        # one integer v among four is impossible for spin input, but reachable
        # for triangle data assembled directly
        t = TriangleData(v=hx(1, 1, 1, HALF), p=hx(Fraction(3, 2), 1, 1))
        with pytest.raises(ParityViolation):
            check_admissible(t, "osp12")

    def test_integrality_violation_on_hand_built_data(self):
        t = TriangleData(v=hx(1, 1, 1, 1), p=hx(Fraction(3, 2), Fraction(3, 2), 1))
        with pytest.raises(IntegralityViolation):
            check_admissible(t, "osp12")

    def test_negative_recovered_spin_on_hand_built_data(self):
        # admissible sums whose recovered 2*j1 = v1 + v4 - p1 = -2 is even but negative
        t = TriangleData(v=hx(0, 0, 0, 0), p=hx(1, 1, 1))
        for algebra in ("su2", "osp12"):
            with pytest.raises(IntegralityViolation, match="^recovered spin j1 is negative$"):
                check_admissible(t, algebra)

    @pytest.mark.parametrize("name, v, p", [
        ("j2", (0, 0, 0, 0), (0, 1, 0)),
        ("j3", (0, 0, 0, 0), (0, 0, 1)),
        ("J1", (1, 0, 0, 0), (1, 1, 1)),
        ("J2", (1, 1, 0, 0), (1, 1, 1)),
        ("J3", (1, 0, 1, 0), (1, 1, 1)),
    ])
    def test_first_negative_recovered_spin_is_named(self, name, v, p):
        # every recovered spin before it is a non-negative integer
        t = TriangleData(v=hx(*v), p=hx(*p))
        with pytest.raises(IntegralityViolation, match=f"^recovered spin {name} is negative$"):
            check_admissible(t, "osp12")

    def test_zero_spins_are_recovered_as_admissible(self):
        for spins in [(1, 1, 0, 1, 1, 0), (0, 0, 0, 0, 0, 0), (HALF, HALF, 0, HALF, HALF, 0)]:
            check_admissible(triangle_sums(SpinSextuple.of(*spins)), "osp12")

    def test_is_admissible_is_false_on_each_violation(self):
        assert not is_admissible(SpinSextuple.of(2, HALF, HALF, HALF, HALF, 2), "osp12")  # triangle
        assert not is_admissible(SpinSextuple.of(*([HALF] * 6)), "su2")  # integrality
        assert is_admissible(SpinSextuple.of(*([HALF] * 6)), "osp12")

    def test_unknown_algebra_raises_value_error(self):
        s = SpinSextuple.of(1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="^unknown algebra 'so3'$"):
            is_admissible(s, "so3")  # not one of the violations it turns into False
        with pytest.raises(ValueError, match="^unknown algebra 'so3'$"):
            check_admissible(triangle_sums(s), "so3")

    def test_parity_trichotomy_on_random_admissible(self):
        rng = random.Random(32)
        for s in random_admissible(rng, n=300):
            t = triangle_sums(s)
            assert sum(x.twice % 2 == 0 for x in t.v) in (0, 2, 4)
            classify_parity(t)  # total on the admissible domain


class TestClassifyParity:
    @pytest.mark.parametrize(
        "spins,parity",
        [
            ((1, 1, 1, 1, 1, 1), Parity.ALPHA),
            ((HALF, HALF, HALF, HALF, HALF, HALF), Parity.GAMMA),
            ((HALF, 1, 1, 1, 1, HALF), Parity.BETA),
        ],
    )
    def test_examples(self, spins, parity):
        assert classify_parity(triangle_sums(SpinSextuple.of(*spins))) is parity
        assert str(parity) == parity.value


class TestBetaDecompose:
    def test_half_pair_v2_v1_gives_j2(self):
        # half-integer triangles (v1, v2) -> jstar is the second-column spin
        s = SpinSextuple.of(HALF, 1, 1, 1, 1, HALF)
        t = triangle_sums(s)
        bd = beta_decompose(s, t)
        assert bd.jstar == s.j2
        assert bd.jstar_companion == s.J2
        assert bd.jstar_slot == 1
        assert bd.p == t.p[1]
        assert bd.vbar.twice + bd.vbar_prime.twice - bd.p.twice == 2 * bd.jstar.twice

    def test_half_pair_v4_v1_gives_j1(self):
        # build a sextuple whose half-integer triangles are v4 and v1
        s = SpinSextuple.of(HALF, 1, 1, 1, 1, 1)
        t = triangle_sums(s)
        halves = {i for i, v in enumerate(t.v) if v.twice % 2}
        assert halves == {0, 3}
        bd = beta_decompose(s, t)
        assert bd.jstar == s.j1 and bd.jstar_companion == s.J1
        assert bd.p == t.p[0]

    def test_half_pair_v3_v4_gives_J2(self):
        s = SpinSextuple.of(1, Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), 1)
        t = triangle_sums(s)
        halves = {i for i, v in enumerate(t.v) if v.twice % 2}
        assert halves == {2, 3}
        bd = beta_decompose(s, t)
        assert bd.jstar == s.J2 and bd.jstar_companion == s.j2
        assert bd.p == t.p[1]

    def test_invariants_on_random_betas(self):
        rng = random.Random(33)
        for s in random_admissible(rng, parity="beta", n=300):
            t = triangle_sums(s)
            bd = beta_decompose(s, t)
            V, Vp, Vb, Vbp, P, Pb, Pbp, J = (x.twice for x in (
                bd.v, bd.v_prime, bd.vbar, bd.vbar_prime, bd.p, bd.pbar, bd.pbar_prime, bd.jstar))
            # both doubled-jstar identities
            assert Pb + Pbp - V - Vp == Vb + Vbp - P
            assert Vb + Vbp - P == 2 * J
            # quadrangle balance
            assert P + Pb + Pbp == V + Vp + Vb + Vbp
            # classification of the split
            assert V % 2 == 0 and Vp % 2 == 0 and P % 2 == 0
            assert Vb % 2 and Vbp % 2
            assert Pb % 2 and Pbp % 2
            # companion shares the column
            assert bd.jstar_companion == s.spins[(bd.jstar_slot + 3) % 6]


    def test_inconsistent_data_raise_value_error(self):
        s = SpinSextuple.of(HALF, 1, 1, 1, 1, HALF)
        t = triangle_sums(s)
        moved_p = TriangleData(t.v, (t.p[0], HalfInt(t.p[1].twice + 2), t.p[2]))
        # the sums of another beta sextuple with the same half-integer triangles v1, v2
        other = triangle_sums(SpinSextuple.of(HALF, 2, 1, 1, 2, HALF))
        for bad in (moved_p, other):
            with pytest.raises(ValueError, match="inconsistent beta decomposition") as exc:
                beta_decompose(s, bad)
            assert type(exc.value) is ValueError

    @pytest.mark.parametrize("spins", [(1,) * 6, (HALF,) * 6], ids=["alpha", "gamma"])
    def test_non_beta_data_raise_parity_violation(self, spins):
        s = SpinSextuple.of(*spins)
        with pytest.raises(ParityViolation, match="exactly two half-integer triangles"):
            beta_decompose(s, triangle_sums(s))


class TestRescale:
    @pytest.mark.parametrize(
        "spins,k,parity",
        [
            ((1, 1, 1, 1, 1, 1), 7, Parity.ALPHA),
            ((HALF, HALF, HALF, HALF, HALF, HALF), 2, Parity.ALPHA),
            ((HALF, HALF, HALF, HALF, HALF, HALF), 3, Parity.GAMMA),
            ((HALF, 1, 1, 1, 1, HALF), 3, Parity.BETA),
            ((HALF, 1, 1, 1, 1, HALF), 4, Parity.ALPHA),
        ],
    )
    def test_transitions(self, spins, k, parity):
        scaled, got = rescale(SpinSextuple.of(*spins), k)
        assert got is parity
        assert scaled == SpinSextuple.of(*(Fraction(x) * k for x in spins))

    def test_admissibility_preserved(self):
        rng = random.Random(34)
        for s in random_admissible(rng, n=100):
            for k in (2, 3, 5):
                assert is_admissible(s.scaled(k), "osp12")


class TestSextupleEdge:
    @pytest.mark.parametrize("k, exc, message", [
        (0, ValueError, "scale factor must be a positive integer, got 0"),
        (-2, ValueError, "scale factor must be a positive integer, got -2"),
        (2.0, TypeError, "scale factor must be an int, got float"),
        (Fraction(2), TypeError, "scale factor must be an int, got Fraction"),
        ("2", TypeError, "scale factor must be an int, got str"),
    ])
    def test_scaled_refuses_a_bad_factor(self, k, exc, message):
        with pytest.raises(exc, match=f"^{message}$"):
            SpinSextuple.of(1, 1, 1, 1, 1, 1).scaled(k)

    def test_scaled_by_one_is_the_sextuple(self):
        s = SpinSextuple.of(HALF, 1, HALF, 1, HALF, 1)
        assert s.scaled(1) == s and s.scaled(3).doubled() == (3, 6, 3, 6, 3, 6)

    @pytest.mark.parametrize("slot,name", list(enumerate(("j1", "j2", "j3", "J1", "J2", "J3"))))
    def test_negative_spin_names_its_slot(self, slot, name):
        spins = [1] * 6
        spins[slot] = -HALF
        with pytest.raises(ValueError, match=rf"^spin {name} must be non-negative, got -1/2$"):
            SpinSextuple.of(*spins)

    def test_first_negative_slot_is_reported(self):
        with pytest.raises(ValueError, match=r"^spin j2 must be non-negative, got -1$"):
            SpinSextuple.of(1, -1, 1, -2, 1, 1)

    def test_wrong_count(self):
        with pytest.raises(ValueError, match=r"^a sextuple needs exactly six spins$"):
            SpinSextuple.of(1, 1, 1, 1, 1)
        for texts in (["1"] * 5, ["1"] * 7):
            with pytest.raises(ValueError, match=r"^a sextuple needs exactly six spins$"):
                SpinSextuple.parse(texts)

    def test_non_half_fraction_spin(self):
        with pytest.raises(ValueError, match=r"^1/3 is not a half-integer$"):
            SpinSextuple.of(1, 1, 1, 1, 1, Fraction(1, 3))

    def test_bool_spin_is_an_int(self):
        assert SpinSextuple.of(True, 1, 1, 1, 1, 1) == SpinSextuple.of(1, 1, 1, 1, 1, 1)

    def test_constructor_reads_spins_as_of_does(self):
        assert SpinSextuple(1, 1, 1, 1, 1, Fraction(1, 2)) == SpinSextuple.of(1, 1, 1, 1, 1, Fraction(1, 2))
        assert SpinSextuple(HalfInt(1), 1, 0, 2, Fraction(3, 2), 3).doubled() == (1, 2, 0, 4, 3, 6)

    def test_constructor_refuses_text(self):
        with pytest.raises(TypeError, match=r"^cannot build HalfInt from str$"):
            SpinSextuple("1", 1, 1, 1, 1, 1)

    def test_doubled(self):
        assert SpinSextuple.of(HALF, 1, 0, 2, Fraction(3, 2), 3).doubled() == (1, 2, 0, 4, 3, 6)


class Spin(enum.IntEnum):
    ZERO = 0
    MINUS = -1
    ONE = 1
    SEVEN = 7


# every kind of value that SpinSextuple.of accepts, negative ones included
ACCEPTED = st.one_of(
    st.integers(-3, 10**6),
    st.booleans(),
    st.sampled_from(Spin),
    st.integers(-3, 10**6).map(Fraction),  # denominator 1
    st.integers(-3, 10**6).map(lambda n: Fraction(2 * n + 1, 2)),  # denominator 2
    st.integers(-3, 10**6).map(HalfInt),
)
REFUSED = [1.5, 2.0, "1", Fraction(1, 4), Fraction(-3, 4)]


def _outcome(build, values):
    """The doubled spins build(values) gives, with their types, or its exception and message."""
    try:
        d = build(values).doubled()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return d, tuple(map(type, d))


def _of_by_twice_of(values):
    """SpinSextuple.of as defined before its int fast path: every value through _twice_of."""
    return SpinSextuple._of_doubled(tuple(map(_twice_of, values)))


def _of(values):
    return SpinSextuple.of(*values)


class TestOfFastPath:
    """SpinSextuple.of doubles plain ints itself; every value reads as _twice_of reads it."""

    @settings(max_examples=400, deadline=None)
    @given(st.tuples(*[ACCEPTED] * 6))
    def test_doubles_every_value_as_twice_of_does(self, values):
        got = _outcome(_of, values)
        assert got == _outcome(_of_by_twice_of, values)
        d = tuple(map(_twice_of, values))
        if min(d) >= 0:
            assert got == (d, (int,) * 6)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[ACCEPTED] * 6), st.integers(0, 5),
           st.sampled_from(REFUSED + [-1, Spin.MINUS, Fraction(-1, 2), HalfInt(-3)]))
    def test_refuses_as_twice_of_and_store_do(self, values, slot, bad):
        values = values[:slot] + (bad,) + values[slot + 1:]
        want = _outcome(_of_by_twice_of, values)
        assert want[0] in (TypeError, ValueError)
        assert _outcome(_of, values) == want

    @pytest.mark.parametrize("slot,name", list(enumerate(SpinSextuple.__match_args__)))
    @pytest.mark.parametrize("bad", [-1, -(10**20), Spin.MINUS, Fraction(-3, 2), HalfInt(-1)])
    def test_a_negative_spin_in_any_slot_names_it(self, slot, name, bad):
        # zeros of every kind around it: the first spin below 0, not below 1, is named
        values = (0, Spin.ZERO, Fraction(0), HalfInt(0), False, 0)
        values = values[:slot] + (bad,) + values[slot + 1:]
        with pytest.raises(ValueError, match=rf"^spin {name} must be non-negative, got -"):
            SpinSextuple.of(*values)
        assert _outcome(_of, values) == _outcome(_of_by_twice_of, values)


def _forms(twice: int):
    """Every value and text that SpinSextuple.of / parse read as twice/2."""
    values = [Fraction(twice, 2), HalfInt(twice)] + ([twice // 2] if twice % 2 == 0 else [])
    whole, half = divmod(twice, 2)
    texts = [f"{twice}/2", f" {whole}.{5 * half}0 "] + ([str(whole)] if half == 0 else [])
    return values, texts


class TestConstructionsAgree:
    @settings(max_examples=200, deadline=None)
    @given(
        base=st.tuples(*[st.integers(0, 13)] * 6),
        k=st.integers(1, 4),
        data=st.data(),
    )
    def test_every_constructor_gives_the_same_sextuple(self, base, k, data):
        d = tuple(k * x for x in base)
        forms = [_forms(x) for x in d]
        values = [data.draw(st.sampled_from(v)) for v, _ in forms]
        texts = [data.draw(st.sampled_from(t)) for _, t in forms]
        built = [
            SpinSextuple.of(*values),
            SpinSextuple.parse(texts),
            SpinSextuple(*map(HalfInt, d)),
            SpinSextuple(*map(HalfInt, base)).scaled(k),
        ]
        spins = tuple(map(HalfInt, d))
        names = SpinSextuple.__match_args__
        text = "{" + " ".join(map(str, spins[:3])) + "; " + " ".join(map(str, spins[3:])) + "}"
        fields = ", ".join(f"{n}={x!r}" for n, x in zip(names, spins))
        for s in built:
            assert s == built[0] and not (s != built[0])
            assert hash(s) == hash(built[0])
            assert s.doubled() == d
            assert s.spins == spins
            assert tuple(getattr(s, n) for n in names) == spins
            assert str(s) == text
            assert repr(s) == f"SpinSextuple({fields})"
        assert len({*built}) == 1
        assert SpinSextuple(*map(HalfInt, (d[0] + 1, *d[1:]))) != built[0]

    @pytest.mark.parametrize("name", [*SpinSextuple.__match_args__, "_d", "spins", "other"])
    def test_assignment_raises(self, name):
        s = SpinSextuple.of(1, 1, 1, 1, 1, 1)
        with pytest.raises(FrozenInstanceError):
            setattr(s, name, HalfInt(4))
        with pytest.raises(FrozenInstanceError):
            delattr(s, name)
        assert s.doubled() == (2,) * 6

    def test_not_equal_to_a_plain_tuple(self):
        s = SpinSextuple.of(1, 1, 1, 1, 1, 1)
        assert s != s.doubled() and s != s.spins

    def test_positional_pattern_binds_the_fields(self):
        s = SpinSextuple.of(HALF, 1, 2, 3, 4, 5)
        match s:
            case SpinSextuple(a, b, c, A, B, C):
                assert (a, b, c, A, B, C) == s.spins
            case _:
                pytest.fail("positional pattern did not match")
