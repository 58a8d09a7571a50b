import random
from fractions import Fraction

import pytest

from sixj import HalfInt
from sixj.halfint import parse_halfint


@pytest.mark.parametrize(
    "text,twice",
    [
        ("3/2", 3),
        ("2", 4),
        ("0", 0),
        ("-1/2", -1),
        ("1.5", 3),
        ("-1.5", -3),
        ("0.5", 1),
        ("2.0", 4),
        ("1.50", 3),
        ("  7/2 ", 7),
    ],
)
def test_parse(text, twice):
    assert HalfInt.parse(text).twice == twice


@pytest.mark.parametrize("text", ["0.25", "1/3", "x", "", "1.51", "2.05"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        HalfInt.parse(text)


def test_roundtrip_through_format():
    rng = random.Random(0)
    for _ in range(200):
        h = HalfInt(rng.randint(-50, 50))
        assert HalfInt.parse(str(h)) == h


def test_exact_ring_ops():
    rng = random.Random(1)
    for _ in range(500):
        a = HalfInt(rng.randint(-100, 100))
        b = HalfInt(rng.randint(-100, 100))
        assert (a < b) == (a.twice < b.twice)


def test_conversions():
    h = HalfInt(3)
    assert h.as_fraction() == Fraction(3, 2)
    assert float(h) == 1.5
    with pytest.raises(ValueError):
        int(h)
    assert int(HalfInt(4)) == 2
    assert not HalfInt(0) and HalfInt(1)
    assert parse_halfint("9/2") == HalfInt(9)


class TestOfEdge:
    @pytest.mark.parametrize(
        "value,twice",
        [(3, 6), (0, 0), (Fraction(3, 2), 3), (Fraction(4, 2), 4), (Fraction(-1, 2), -1)],
    )
    def test_exact_halves(self, value, twice):
        assert HalfInt.of(value) == HalfInt(twice)

    def test_bool_is_an_int(self):
        assert HalfInt.of(True) == HalfInt(2)

    def test_non_half_fraction(self):
        with pytest.raises(ValueError, match=r"^1/3 is not a half-integer$"):
            HalfInt.of(Fraction(1, 3))

    def test_quarter_fraction(self):
        with pytest.raises(ValueError, match=r"^5/4 is not a half-integer$"):
            HalfInt.of(Fraction(5, 4))

    def test_float_is_rejected(self):
        with pytest.raises(TypeError, match=r"^cannot build HalfInt from float$"):
            HalfInt.of(1.5)

    def test_text_is_rejected(self):
        with pytest.raises(TypeError, match=r"^cannot build HalfInt from str$"):
            HalfInt.of("1/2")
