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
