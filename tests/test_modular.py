"""Exact values at large k agree with a modular evaluation that shares no code
with the package's summation kernel or its prime-exponent code (tests/modular.py)."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import modular
from sixj import SpinSextuple, sixj_exact, sixj_super_exact
from sixj.errors import AdmissibilityError

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import inputs  # noqa: E402

EVALUATORS = {"su2": (sixj_exact, modular.su2), "super": (sixj_super_exact, modular.osp12)}


def check(kind: str, spins) -> None:
    evaluate, formula = EVALUATORS[kind]
    modular.check(evaluate(SpinSextuple.parse([str(Fraction(x)) for x in spins])), formula(spins))


def test_primes():
    assert all(2**61 < p < 2**63 and sympy.isprime(p) for p in modular.PRIMES)
    assert len(set(modular.PRIMES)) == 3


@pytest.mark.parametrize("kind, base", [
    ("su2", ["1"] * 6),
    ("super", ["1"] * 6),
    ("super", ["1", "3/2", "3/2", "3/2", "3/2", "1"]),
    ("super", ["1/2"] * 6),
], ids=["su2", "alpha", "beta", "gamma"])
def test_at_k_2001(kind, base):
    check(kind, [2001 * Fraction(x) for x in base])


def test_su2_at_k_8001():
    check("su2", [Fraction(8001)] * 6)


@pytest.mark.parametrize("kind, doubled, k", inputs.LARGE_K, ids=lambda x: str(x).replace(" ", ""))
def test_large_k_inputs(kind, doubled, k):
    check(kind, [Fraction(k * d, 2) for d in doubled])


@pytest.mark.parametrize("kind", ["su2", "super"])
def test_random_sextuples(kind):
    """Random doubled spins up to 120: 60 admissible ones agree, and the package
    refuses every one the formula cannot take."""
    rng = random.Random(8)
    evaluate, formula = EVALUATORS[kind]
    checked = 0
    while checked < 60:
        spins = [Fraction(rng.randint(0, 120), 2) for _ in range(6)]
        s = SpinSextuple.parse(map(str, spins))
        try:
            x = formula(spins)
        except ValueError:
            with pytest.raises(AdmissibilityError):
                evaluate(s)
            continue
        modular.check(evaluate(s), x)
        checked += 1
