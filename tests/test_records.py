"""The nine value types behave as the frozen slotted dataclasses they were.

Each type is compared with a reference twin: a
``@dataclass(frozen=True, slots=True)`` built from the type's
``__annotations__`` (``order=True`` for ``HalfInt``) that carries the type's
own ``__post_init__`` and ``__repr__`` where the type defines them.
Assignment and deletion are checked against ``FrozenInstanceError`` itself:
on Python 3.11 the slotted twin raises ``TypeError`` for a name that is not
a field.
"""

import copy
import itertools
import operator
import pickle
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import pytest

from sixj import AsymptoticResult, ExactSymbol, HalfInt, ScaledFloat, ScanRecord, SlopeFit, TetGeometry
from sixj.triangles import BetaDecomposition, TriangleData

H = HalfInt
ANGLES = (1.2309594173407747,) * 6

# field values per type, valid for __post_init__; two of them equal per type
SAMPLES = {
    HalfInt: [(3,), (-1,), (0,), (3,)],
    TriangleData: [
        ((H(2), H(2), H(2), H(2)), (H(3), H(3), H(2))),
        ((H(3), H(3), H(2), H(2)), (H(4), H(3), H(3))),
        ((H(2), H(2), H(2), H(2)), (H(3), H(3), H(2))),
    ],
    BetaDecomposition: [
        (*map(H, (2, 2, 3, 3, 4, 5, 5, 1, 1)), 0),
        (*map(H, (4, 2, 3, 5, 6, 5, 7, 3, 1)), 4),
        (*map(H, (2, 2, 3, 3, 4, 5, 5, 1, 1)), 0),
    ],
    ExactSymbol: [
        (Fraction(1, 2), Fraction(3)),
        (Fraction(-2), Fraction(8, 3)),  # canonicalised to -4 sqrt(2/3)
        (Fraction(0), Fraction(5)),  # canonicalised to 0 sqrt(1)
        (Fraction(1, 2), Fraction(3)),
    ],
    ScaledFloat: [(1.5, 3), (-1.0, -2000), (0.0, 0), (1.5, 3)],
    TetGeometry: [
        ((1.0,) * 6, 0.11785113019775792, ANGLES, Fraction(4)),
        ((1.0,) * 5 + (1.5,), 0.1, ANGLES, Fraction(33, 8)),
        ((1.0,) * 6, 0.11785113019775792, ANGLES, Fraction(4)),
    ],
    AsymptoticResult: [(0.1, 2.0, -0.0416, "alpha"), (0.2, 1.0, 0.108, "standard"),
                       (0.1, 2.0, -0.0416, "alpha")],
    ScanRecord: [
        (21, "su2", ScaledFloat(1.25, -10), 0.001, 1e-6, 0.002, 3.5),
        (23, "beta", ScaledFloat(-1.75, -12), -0.0004, 2e-7, 0.0009, -1.0),
        (21, "su2", ScaledFloat(1.25, -10), 0.001, 1e-6, 0.002, 3.5),
    ],
    SlopeFit: [(-1.5, 0.3, 0.99, 12), (-0.5, 0.0, 1.0, 3), (-1.5, 0.3, 0.99, 12)],
}
TYPES = list(SAMPLES)
# (type, field values, the exception __post_init__ raises)
INVALID = [
    (HalfInt, (1.5,), TypeError),
    (HalfInt, (Fraction(3),), TypeError),
    (ExactSymbol, (Fraction(1), Fraction(-1)), ValueError),
    (ScaledFloat, (3.0, 0), ValueError),
    (ScaledFloat, (0.5, 1), ValueError),
    (ScaledFloat, (0.0, 1), ValueError),
]


def _twin(cls):
    body = {"__annotations__": dict(cls.__annotations__), "__qualname__": cls.__qualname__}
    body.update({name: vars(cls)[name] for name in ("__post_init__", "__repr__") if name in vars(cls)})
    return dataclass(frozen=True, slots=True, order=cls is HalfInt)(type(cls.__name__, (), body))


TWINS = {cls: _twin(cls) for cls in TYPES}


def _pairs():
    """(record, its twin) for every sample of every type."""
    return [(cls(*values), TWINS[cls](*values)) for cls in TYPES for values in SAMPLES[cls]]


def _names(cls):
    return list(cls.__annotations__)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
class TestEachType:
    def test_slots_equal_the_annotations(self, cls):
        assert cls.__slots__ == tuple(_names(cls)) == TWINS[cls].__slots__
        assert not hasattr(cls(*SAMPLES[cls][0]), "__dict__")

    def test_match_args(self, cls):
        assert cls.__match_args__ == TWINS[cls].__match_args__ == tuple(_names(cls))

    def test_repr_and_fields(self, cls):
        for values in SAMPLES[cls]:
            x, t = cls(*values), TWINS[cls](*values)
            assert repr(x) == repr(t)
            assert [getattr(x, n) for n in _names(cls)] == [getattr(t, n) for n in _names(cls)]

    def test_keyword_and_positional_construction(self, cls):
        names = _names(cls)
        for values in SAMPLES[cls]:
            kw = dict(zip(names, values))
            built = [cls(*values), cls(**kw), cls(*values[:1], **dict(list(kw.items())[1:]))]
            assert len({repr(x) for x in built} | {repr(TWINS[cls](**kw))}) == 1
            assert built[0] == built[1] == built[2]

    def test_wrong_arguments_raise_type_error(self, cls):
        names, values = _names(cls), SAMPLES[cls][0]
        wrong = [
            (values + (1,), {}),  # one positional too many
            (values[:-1], {}),  # one missing
            ((), {}),
            (values, {"other": 1}),  # unexpected keyword
            (values, {names[0]: values[0]}),  # a field given twice
            ((), dict(zip(names[1:], values[1:]))),  # the first field missing
        ]
        for args, kwargs in wrong:
            for make in (cls, TWINS[cls]):
                with pytest.raises(TypeError):
                    make(*args, **kwargs)

    def test_copy_and_pickle_round_trip(self, cls):
        for x, t in _pairs():
            if type(x) is not cls:
                continue
            pickled = [pickle.loads(pickle.dumps(x, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
            for y in (copy.copy(x), copy.deepcopy(x), *pickled):
                assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == repr(x)
            assert repr(copy.copy(t)) == repr(copy.deepcopy(t)) == repr(x)

    @pytest.mark.parametrize("name", ["field", "other"])
    def test_assignment_and_deletion_raise_frozen(self, cls, name):
        x = cls(*SAMPLES[cls][0])
        before = repr(x)
        for attr in _names(cls) if name == "field" else ["other", "__dict__"]:
            with pytest.raises(FrozenInstanceError):
                setattr(x, attr, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(x, attr)
        assert repr(x) == before


def test_equality_and_hash_match_the_twins():
    # ExactSymbol hashes its value, not its fields (sqrt(n/d) as sqrt(n*d)/d),
    # so only its equal values must hash equal; -4 sqrt(2/3) hashes otherwise
    # than its twin
    pairs = _pairs()
    for (x, t), (y, u) in itertools.product(pairs, repeat=2):
        assert (x == y) is (t == u), (x, y)
        assert (x != y) is (t != u), (x, y)
        if t == u:
            assert hash(x) == hash(y)
            if type(x) is not ExactSymbol:
                assert hash(x) == hash(t) == hash(u)
    for x, t in pairs:
        if type(x) is not ExactSymbol:
            assert hash(x) == hash(t)
        assert x != t and x != tuple(getattr(x, n) for n in x.__slots__)


def test_halfint_ordering_matches_the_twin():
    values = [-3, -1, 0, 1, 2, 5]
    for a, b in itertools.product(values, repeat=2):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            assert op(HalfInt(a), HalfInt(b)) is op(TWINS[HalfInt](a), TWINS[HalfInt](b))
    assert sorted(map(HalfInt, [5, -1, 2])) == [HalfInt(-1), HalfInt(2), HalfInt(5)]
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for make in (HalfInt, TWINS[HalfInt]):
            with pytest.raises(TypeError):
                op(make(1), 2)


@pytest.mark.parametrize("cls", [c for c in TYPES if c is not HalfInt], ids=lambda c: c.__name__)
def test_other_types_are_unordered(cls):
    for make in (cls, TWINS[cls]):
        a, b = make(*SAMPLES[cls][0]), make(*SAMPLES[cls][1])
        with pytest.raises(TypeError):
            a < b  # noqa: B015


@pytest.mark.parametrize("cls, values, error", INVALID, ids=lambda x: getattr(x, "__name__", None))
def test_post_init_errors_match_the_twin(cls, values, error):
    with pytest.raises(error) as mine:
        cls(*values)
    with pytest.raises(error) as twin:
        TWINS[cls](*values)
    assert str(mine.value) == str(twin.value)


def test_post_init_canonicalises_like_the_twin():
    cases = [(Fraction(-2), Fraction(8, 3)), (Fraction(3), Fraction(0)), (Fraction(1, 3), Fraction(12, 49))]
    for values in cases:
        x, t = ExactSymbol(*values), TWINS[ExactSymbol](*values)
        assert (x.coeff, x.radicand) == (t.coeff, t.radicand)
        assert repr(ExactSymbol(coeff=values[0], radicand=values[1])) == repr(t)
