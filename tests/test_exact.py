import copy
import inspect
import itertools
import json
import math
import pickle
import random
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixj import (ExactSymbol, Parity, ScaledFloat, SixjError, SpinSextuple, asym_for_scaled, asym_standard, exact,
                  scan, sixj_exact, sixj_super_exact, symbols)
from sixj.exact import _ratio_to_mantissa, exact_to_scaled, factorial_symbol, primes_up_to
from sixj.symbols import _alternating_sum, _bound, _brackets, _symbol
from sixj.triangles import _check, _sums
from cores import exponent_reads
from oracles import parts, primes_by_trial_division, squarefree_split
from test_golden import DATA as GOLDEN, other_interpreters, run_cli


def _scaled(q: Fraction) -> ScaledFloat:
    """The ScaledFloat of a rational: exact_to_scaled with radicand 1 rounds q once."""
    return exact_to_scaled(ExactSymbol(q, Fraction(1)))


def test_factorial_basics():
    # the package's n! is the coefficient factorial_symbol builds from row n
    assert factorial_symbol(1, [], [], [0], [], 1) == ExactSymbol(Fraction(1), Fraction(1))
    assert factorial_symbol(1, [], [], [5], [], 1) == ExactSymbol(Fraction(120), Fraction(1))
    with pytest.raises(ValueError):
        math.factorial(-1)


def test_factorial_trailing_zeros_matches_legendre():
    # the table's exponents of sqrt(50! 50!) give back 50!
    value = factorial_symbol(1, [50, 50], [], [], [], 1)
    assert value == ExactSymbol(Fraction(math.factorial(50)), Fraction(1))
    # power of 5 in 50! by Legendre's formula gives the trailing-zero count
    zeros = 50 // 5 + 50 // 25
    assert zeros == 12
    text = str(value.coeff)
    assert text.endswith("0" * zeros) and not text.endswith("0" * (zeros + 1))


@pytest.mark.parametrize("cap", [2048, 0])  # table rows, then Legendre rows
def test_factorial_symbol_matches_exact_factorials(monkeypatch, cap):
    monkeypatch.setattr(exact, "_FACT_CAP", cap)
    monkeypatch.setattr(exact, "_facts", EMPTY_TABLE)
    rng = random.Random(24)
    for _ in range(40):
        lists = [[rng.randint(0, 60) for _ in range(rng.randint(0, 5))] for _ in range(4)]
        num, den = rng.randint(-99, 99), rng.randint(1, 99)
        rad_nums, rad_dens, coef_nums, coef_dens = ([math.factorial(a) for a in args] for args in lists)
        coeff = Fraction(num * math.prod(coef_nums), den * math.prod(coef_dens))
        radicand = Fraction(math.prod(rad_nums), math.prod(rad_dens))
        assert parts(factorial_symbol(num, *lists, den)) == parts(ExactSymbol(coeff, radicand)), lists


def test_factorial_table_consistent():
    # the kernel's single term at t = n is (-1)^n n! / (0!^4 0!^3): the numerator
    # (-1)^n, times the head n! / (0!^4 0!^3) that _symbol takes from the table;
    # doubled sums 0 make the prefactor 0!^12 / 0!^4 = 1
    table = [_alternating_sum([n] * 4, [n] * 3, 1, 0) for n in range(31)]
    assert table[0] == 1
    for n in (1, 7, 19, 30):
        assert table[n] == (-1) ** n
        value = _symbol(table[n], (0,) * 4, (0,) * 3, 1, [n] * 4, [n] * 3, n, n, 1)
        assert value == ExactSymbol(Fraction((-1) ** n * math.factorial(n)), Fraction(1))


def test_squarefree_split():
    # the reference rule the constructor is checked against, in tests/oracles.py
    assert squarefree_split(720) == (12, 5)
    assert squarefree_split(1) == (1, 1)
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10**6)
        s, f = squarefree_split(n)
        assert s * s * f == n
        s2, f2 = squarefree_split(f)
        assert s2 == 1 and f2 == f


class TestExactSymbol:
    def test_canonical_extracts_squares(self):
        assert parts(ExactSymbol(Fraction(1), Fraction(8))) == (Fraction(2), Fraction(2))
        assert parts(ExactSymbol(Fraction(1), Fraction(4, 9))) == (Fraction(2, 3), Fraction(1))

    def test_zero_normalises_radicand(self):
        z = ExactSymbol(Fraction(0), Fraction(17, 3))
        assert z.coeff == 0 and z.radicand == 1
        assert z == ExactSymbol.zero()

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            ExactSymbol(Fraction(1), Fraction(-2))

    def test_canonical_idempotent(self):
        rng = random.Random(11)
        for _ in range(300):
            c = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
            r = Fraction(rng.randint(0, 500), rng.randint(1, 500))
            x = ExactSymbol(c, r)
            assert parts(ExactSymbol(x.coeff, x.radicand)) == parts(x)

    def test_equality_agrees_with_sign_and_square(self):
        rng = random.Random(12)
        pairs = 0
        while pairs < 1000:
            c1 = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
            c2 = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
            r1 = Fraction(rng.randint(0, 60), rng.randint(1, 20))
            r2 = Fraction(rng.randint(0, 60), rng.randint(1, 20))
            a = ExactSymbol(c1, r1)
            b = ExactSymbol(c2, r2)
            same_value = a.sign == b.sign and a.squared() == b.squared()
            assert (a == b) == same_value, (a, b)
            pairs += 1

    def test_equal_values_compare_and_hash_equal(self):
        # a prime may sit under the root on either side: sqrt(n/d) = sqrt(n*d)/d
        for n, d in [(2, 1), (1, 2), (3, 5), (6, 35), (1, 30)]:
            a = ExactSymbol(Fraction(-7, 3), Fraction(n, d))
            b = ExactSymbol(Fraction(-7, 3 * d), Fraction(n * d))
            assert a == b and hash(a) == hash(b), (a, b)
            assert a != -b and a != ExactSymbol(Fraction(-7, 3), Fraction(n * d, d * d + 1))
        half = Fraction(1, 2)
        value = sixj_super_exact(SpinSextuple.of(half, half, half, half, 1, 1))
        assert str(value) == "-3/2 * sqrt(1/3)"
        other = ExactSymbol(Fraction(-1, 2), Fraction(3))
        assert value == other and hash(value) == hash(other)

    def test_float_coefficient_is_taken_exactly(self):
        # the float 0.1 times the square part 3, not the double 0.30000000000000004
        assert parts(ExactSymbol(0.1, Fraction(9))) == (3 * Fraction(0.1), Fraction(1))

    def test_radicand_is_taken_as_a_fraction(self):
        # as coeff is: a float radicand was an AttributeError on .numerator
        assert ExactSymbol(1, 2.0) == ExactSymbol(1, 2)
        assert parts(ExactSymbol(1, 2.0)) == (Fraction(1), Fraction(2))
        with pytest.raises(ValueError, match="^Invalid literal for Fraction: 'x'$"):
            ExactSymbol(1, "x")

    def test_prime_exponent_route_matches_radicand_route(self):
        rng = random.Random(13)
        for _ in range(200):
            exps = {p: rng.randint(-6, 6) for p in (2, 3, 5, 7, 11, 13)}
            coeff = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            rad = Fraction(1)
            for p, e in exps.items():
                rad *= Fraction(p) ** e
            value = ExactSymbol.from_prime_exponents(
                coeff.numerator, exps, exps.values(), [0] * len(exps), coeff.denominator
            )
            assert parts(value) == oracle_parts(coeff, rad)


def oracle_parts(coeff, radicand) -> tuple[Fraction, Fraction]:
    """The canonical pair by the reference rule: squarefree_split of each side
    of the radicand, the square parts multiplied into coeff."""
    if coeff == 0 or radicand == 0:
        return Fraction(0), Fraction(1)
    sn, fn = squarefree_split(radicand.numerator)
    sd, fd = squarefree_split(radicand.denominator)
    return Fraction(coeff) * Fraction(sn, sd), Fraction(fn, fd)


BIG_PRIME = 1_000_003  # a prime above 10**6, below the constructor's bound 2**20
_SIDE = st.tuples(st.lists(st.sampled_from([2, 2, 3, 3, 5, 7, 11, 997]), max_size=12),
                  st.integers(0, 1)).map(lambda t: math.prod(t[0]) * BIG_PRIME ** t[1])


@settings(max_examples=150, deadline=None)
@given(
    coeff=st.one_of(st.integers(-50, 50), st.fractions(max_denominator=50), st.booleans(),
                    st.floats(-1e6, 1e6, allow_nan=False)),
    num=_SIDE,
    den=_SIDE,
    as_int=st.booleans(),
)
@example(coeff=Fraction(-3, 4), num=BIG_PRIME**2, den=1, as_int=False)  # a prime square
@example(coeff=5, num=12, den=BIG_PRIME**2 * 8, as_int=False)
@example(coeff=0.1, num=2**7 * 3**4 * 5, den=7**3, as_int=False)
@example(coeff=Fraction(2, 3), num=0, den=1, as_int=True)
@example(coeff=0, num=18, den=1, as_int=False)
@example(coeff=True, num=2**5 * BIG_PRIME**3, den=1, as_int=True)
def test_constructor_stores_the_oracle_pair(coeff, num, den, as_int):
    radicand = num if as_int else Fraction(num, den)
    value = ExactSymbol(coeff, radicand)
    assert type(value.coeff) is Fraction and type(value.radicand) is Fraction
    assert parts(value) == oracle_parts(coeff, Fraction(radicand))


PRIME_BELOW_2_60 = 2**60 - 93
PRIMES_ABOVE_BOUND = (1048583, 1048589)  # the first two primes above 2**20
SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestConstructorBound:
    """ExactSymbol(coeff, radicand) trial-divides up to exact._TRIAL_BOUND = 2**20
    and refuses a cofactor of bound**3 or more that has no prime factor up to it."""

    def test_prime_near_2_61_is_refused_within_five_seconds(self):
        # unbounded trial division up to its square root takes about a minute here
        code = (f"import sys; sys.path.insert(0, {SRC!r}); from fractions import Fraction; "
                "from sixj import ExactSymbol; ExactSymbol(Fraction(1), Fraction(2**61 - 1))")
        run = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=5)
        assert run.returncode == 1
        assert run.stderr.endswith(
            "ValueError: radicand factor over 1048576**3 has no prime factor <= 1048576\n")

    def test_large_prime_and_prime_square_past_the_bound(self):
        p = PRIME_BELOW_2_60
        r, q = PRIMES_ABOVE_BOUND
        assert parts(ExactSymbol(Fraction(3), Fraction(p))) == (Fraction(3), Fraction(p))
        assert parts(ExactSymbol(Fraction(3), Fraction(12, p))) == (Fraction(6), Fraction(3, p))
        assert parts(ExactSymbol(Fraction(1), Fraction(r * r))) == (Fraction(r), Fraction(1))
        assert parts(ExactSymbol(Fraction(2), Fraction(5, r * r))) == (Fraction(2, r), Fraction(5))
        assert parts(ExactSymbol(Fraction(1), Fraction(r * q, 4))) == (Fraction(1, 2), Fraction(r * q))
        with pytest.raises(ValueError, match="1048576"):
            ExactSymbol(Fraction(1), Fraction(1, r * q * 1048601))

    def test_every_odd_divisor_up_to_the_bound_is_tried(self, monkeypatch):
        monkeypatch.setattr(exact, "_TRIAL_BOUND", 257)  # a prime bound: d = 257 is the last divisor
        assert parts(ExactSymbol(Fraction(1), Fraction(257**3))) == (Fraction(257), Fraction(257))
        assert parts(ExactSymbol(Fraction(1), Fraction(2, 257**3))) == (Fraction(1, 257), Fraction(2, 257))
        assert parts(ExactSymbol(Fraction(1), Fraction(2 * 263**2))) == (Fraction(263), Fraction(2))
        assert parts(ExactSymbol(Fraction(1), Fraction(263 * 269, 3))) == (Fraction(1), Fraction(263 * 269, 3))
        for radicand in (Fraction(263 * 269 * 271), Fraction(5, 263**3)):
            with pytest.raises(ValueError, match="^radicand factor over 257\\*\\*3 has no prime factor <= 257$"):
                ExactSymbol(Fraction(1), radicand)

    def test_copies_pickles_and_negations_do_not_factor(self, monkeypatch):
        value = sixj_exact(SpinSextuple.of(3, 2, 3, 2, 3, 3).scaled(30))
        assert all(value.radicand.denominator % p == 0 for p in (257, 263, 269))
        monkeypatch.setattr(exact, "_TRIAL_BOUND", 2**8)
        with pytest.raises(ValueError):
            ExactSymbol(value.coeff, value.radicand)
        negated = -value
        assert type(negated) is ExactSymbol and parts(negated) == (-value.coeff, value.radicand)
        assert parts(-negated) == parts(value)
        pickled = [pickle.loads(pickle.dumps(value, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in (copy.copy(value), copy.deepcopy(value), *pickled):
            assert type(y) is ExactSymbol and parts(y) == parts(value) and y == value


class TestNoProgramPathFactors:
    """No program path reaches the constructor's trial division: with it raising,
    the golden set, both evaluators, both asymptotic routers and scan still pass."""

    @pytest.fixture(autouse=True)
    def factoring_raises(self, monkeypatch):
        def factor(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(exact, "_factor", factor)

    def test_golden_set(self):
        for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
            assert run_cli(case["argv"]) == case

    def test_evaluators_and_routers_on_every_spin_up_to_three_halves(self):
        done = 0
        for d in itertools.product(range(4), repeat=6):
            s = SpinSextuple.of(*(Fraction(x, 2) for x in d))
            calls = [(sixj_exact, s), (sixj_super_exact, s)]
            calls += [(route, s, k) for route in (asym_standard, asym_for_scaled) for k in (1, 2, 3)]
            for call, *args in calls:
                try:
                    call(*args)
                    done += 1
                except SixjError:
                    pass
        assert done == 181 + 648 + 512  # SU(2) values, OSP(1|2) values, asymptotic results

    @pytest.mark.parametrize("kind, spins", [("su2", (1,) * 6), ("super", (Fraction(1, 2),) * 6)])
    def test_scan(self, kind, spins):
        assert len(scan(SpinSextuple.of(*spins), kind, list(range(21, 62)))) == 41


class TestScaledFloat:
    def test_basic_values(self):
        assert ExactSymbol(Fraction(1, 2), Fraction(1)).to_scaled().to_float() == 0.5
        root2 = ExactSymbol(Fraction(1), Fraction(2)).to_scaled().to_float()
        assert abs(root2 - math.sqrt(2)) <= 2 * math.ulp(math.sqrt(2))

    def test_zero(self):
        z = ScaledFloat.zero()
        assert z.to_float() == 0.0
        assert float(ScaledFloat(1.5, 3)) == 12.0
        assert exact_to_scaled(ExactSymbol.zero()) == z

    def test_ratio_to_float_refuses_a_quotient_past_the_float_range(self):
        assert exact._ratio_to_float(10**400, 3 * 10**399, "unused") == 10 / 3
        with pytest.raises(ValueError, match="^no float$"):
            exact._ratio_to_float(10**400, 3, "no float")

    def test_sign_at_mantissa_one(self):
        # a power of two has mantissa exactly +-1.0
        assert ScaledFloat(1.0, 7).sign == 1 and ScaledFloat(-1.0, -3).sign == -1 and ScaledFloat.zero().sign == 0

    def test_mantissa_range_enforced(self):
        with pytest.raises(ValueError):
            ScaledFloat(2.5, 0)
        with pytest.raises(ValueError):
            ScaledFloat(0.0, 3)

    def test_from_fraction_matches_float_division(self):
        rng = random.Random(21)
        for _ in range(2000):
            q = Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))
            got = _scaled(q).to_float()
            assert got == float(q)

    def test_from_float_roundtrip(self):
        rng = random.Random(22)
        for _ in range(500):
            x = rng.uniform(-1e6, 1e6)
            assert _scaled(Fraction(x)).to_float() == x

    def test_huge_magnitudes_saturate_but_keep_logs(self):
        big = _scaled(Fraction(math.factorial(500), 1))
        assert big.to_float() == math.inf
        ref = sum(math.log2(n) for n in range(2, 501))
        assert abs(big.abs_log2() - ref) < 1e-9 * ref

    def test_large_factorial_ratio_matches_lgamma(self):
        f = math.factorial
        value = ExactSymbol(Fraction(f(4000), f(2500) * f(1200)), Fraction(1))
        got = value.to_scaled().abs_ln()
        want = math.lgamma(4001) - math.lgamma(2501) - math.lgamma(1201)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_sign_preserved(self):
        v = ExactSymbol(Fraction(-3, 7), Fraction(5))
        assert v.to_scaled().sign == -1
        assert v.to_scaled().to_float() < 0

    def test_sqrt_path_within_two_ulp_of_high_precision(self):
        # reference: round coeff * sqrt(radicand) with 192 guard bits
        def reference(coeff, radicand):
            n = coeff.numerator * math.isqrt((radicand.numerator * radicand.denominator) << 384)
            d = (coeff.denominator * radicand.denominator) << 192
            return _scaled(Fraction(n, d))

        rng = random.Random(23)
        for _ in range(1000):
            coeff = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
            radicand = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
            got = ExactSymbol(coeff, radicand).to_scaled()
            ref = reference(coeff, radicand)
            if got == ref:
                continue
            g = math.ldexp(got.mantissa, got.exp2 - min(got.exp2, ref.exp2))
            r = math.ldexp(ref.mantissa, ref.exp2 - min(got.exp2, ref.exp2))
            assert abs(g - r) <= 2 * math.ulp(max(abs(g), abs(r)))

    def test_power_of_two_values_exact(self):
        for e in (-1074, -600, -52, 0, 52, 600, 1023):
            q = Fraction(2) ** e
            assert _scaled(q) == ScaledFloat(1.0, e)


def round_half_even(n: int, d: int) -> tuple[float, int]:
    """n/d (positive ints) rounded to 53 bits, half to even, in Fraction arithmetic."""
    q = Fraction(n, d)
    e = n.bit_length() - d.bit_length()
    if q < Fraction(2) ** e:
        e -= 1
    r = round(q / Fraction(2) ** (e - 52))  # in [2**52, 2**53], ties to even
    if r == 1 << 53:
        r, e = 1 << 52, e + 1
    return r / (1 << 52), e


_BIG = st.integers(1, 20000).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))
# an odd 54-bit mantissa, a tie at 53 bits, times 2**x, both sides times c
_TIE = st.builds(lambda m, x, c: ((m << max(x, 0)) * c, (c << max(-x, 0))),
                 st.integers(1 << 52, (1 << 53) - 1).map(lambda j: 2 * j + 1),
                 st.integers(-5000, 5000), _BIG)


@settings(max_examples=300, deadline=None)
@given(nd=st.one_of(st.tuples(_BIG, _BIG), _TIE))
@example(nd=((1 << 53) + 1, 1))  # a tie rounded down to the even 2**53
@example(nd=((1 << 53) + 3, 1))  # a tie rounded up to the even 2**53 + 4
@example(nd=(((1 << 53) - 1) * 2 + 1, 1 << 20001))  # rounds up to the next binade
@example(nd=(1, (1 << 20000) - 1))
def test_ratio_to_mantissa_rounds_half_to_even(nd):
    assert _ratio_to_mantissa(*nd) == round_half_even(*nd)


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, math.isqrt(n) + 1))


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(-60, 60),
    den=st.integers(1, 60),
    exps=st.dictionaries(st.sampled_from(_PRIMES), st.integers(-9, 9), max_size=8),
)
@example(num=0, den=1, exps={2: 3, 3: -1})
@example(num=5, den=3, exps={})
@example(num=-7, den=2, exps={2: 0, 5: -3, 7: 4})
def test_from_prime_exponents_is_canonical(num, den, exps):
    coeff = Fraction(num, den)
    v = ExactSymbol.from_prime_exponents(num, exps, exps.values(), [0] * len(exps), den)
    again = ExactSymbol(v.coeff, v.radicand)
    assert (v.coeff, v.radicand) == (again.coeff, again.radicand)
    rn, rd = v.radicand.numerator, v.radicand.denominator
    assert rn > 0 and _squarefree(rn) and _squarefree(rd) and math.gcd(rn, rd) == 1
    # the same value: sign and square agree with coeff * sqrt(prod p**e)
    square = coeff * coeff
    for p, e in exps.items():
        square *= Fraction(p) ** e
    assert v.sign == (num > 0) - (num < 0)
    assert v.squared() == square
    if num == 0:
        assert v.radicand == 1


class TestSieveCache:
    def test_matches_trial_division_in_shuffled_order(self, monkeypatch):
        # start from an empty sieve, so its growth follows this test's requests
        monkeypatch.setattr(exact, "_sieve", (2, []))
        oracle = primes_by_trial_division(3000)
        ns = list(range(3001))
        random.Random(61).shuffle(ns)
        largest = 0
        for n in ns:
            largest = max(largest, n)
            assert primes_up_to(n) == [p for p in oracle if p <= n], n
            assert exact._sieve[0] <= max(2, 2 * largest)
        assert primes_up_to(-3) == []

    def test_threads_growing_the_sieve_get_correct_primes(self, monkeypatch):
        monkeypatch.setattr(exact, "_sieve", (2, []))
        oracle = primes_by_trial_division(4000)
        wrong = []

        def work(seed):
            rng = random.Random(seed)
            for n in sorted(rng.randint(0, 4000) for _ in range(200)):
                if primes_up_to(n) != [p for p in oracle if p <= n]:
                    wrong.append(n)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert exact._sieve[0] <= 2 * 4000

    def test_mutating_a_result_changes_no_later_result(self):
        first = primes_up_to(50)
        first.append(4)
        first[0] = 1
        first.remove(7)
        assert primes_up_to(50) == primes_by_trial_division(50)
        assert primes_up_to(10) == [2, 3, 5, 7]


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(-(10**30), 10**30),
    den=st.integers(-(10**12), 10**12).filter(bool),
    exps=st.dictionaries(st.sampled_from(_PRIMES), st.integers(-9, 9), max_size=8),
)
@example(num=0, den=7, exps={2: 1})
@example(num=12, den=-18, exps={3: 3})
def test_from_prime_exponents_int_ratio_matches_fraction(num, den, exps):
    by_ints = ExactSymbol.from_prime_exponents(num, exps, exps.values(), [0] * len(exps), den)
    # the canonicalising constructor, by trial division of the multiplied-out radicand
    radicand = math.prod((Fraction(p) ** e for p, e in exps.items()), start=Fraction(1))
    by_fraction = ExactSymbol(Fraction(num, den), radicand)
    assert type(by_ints.coeff) is Fraction and type(by_ints.radicand) is Fraction
    assert (by_ints.coeff, by_ints.radicand) == (by_fraction.coeff, by_fraction.radicand)


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(-(10**30), 10**30),
    den=st.integers(1, 10**12),
    exps=st.dictionaries(
        st.sampled_from(_PRIMES), st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=8
    ),
)
@example(num=1, den=4, exps={2: (-3, 2)})
@example(num=-7, den=1, exps={3: (5, -2), 5: (0, -1)})
def test_from_prime_exponents_coefficient_exponents_match_fraction(num, den, exps):
    # (num/den) prod p**c sqrt(prod p**e), the coefficient's primes kept apart from the radicand's
    rad, coef = [e for e, _ in exps.values()], [c for _, c in exps.values()]
    value = ExactSymbol.from_prime_exponents(num, exps, rad, coef, den)
    coeff = Fraction(num, den) * math.prod((Fraction(p) ** c for p, (_, c) in exps.items()), start=1)
    radicand = math.prod((Fraction(p) ** e for p, (e, _) in exps.items()), start=Fraction(1))
    assert parts(value) == parts(ExactSymbol(coeff, radicand))  # the same canonical bytes


EMPTY_TABLE = ([0], [])  # the table before any request: 0! and no prime


def unpacked(row: int, fields: int, bits: int = 16) -> list[int]:
    """The fields of a row, lowest first: 16 bits in the table, 32 in a Legendre row."""
    return [(row >> (bits * i)) & ((1 << bits) - 1) for i in range(fields)]


class TestFactorialTable:
    """The packed n! exponent vectors of sixj.exact, against Legendre and exact factorials."""

    def test_fields_stay_inside_sixteen_bits(self):
        cap = exact._FACT_CAP
        # v_p(n!) <= n - 1: the largest exponent in any row is that of 2 in cap!
        assert max(unpacked(exact._LegendreRows()[cap], len(primes_up_to(cap)), 32)) == cap - 1 == 2047
        # radicand: twelve rows over four; coefficient: one row over seven
        radicand = (2**15 - 4 * (cap - 1), 2**15 + 12 * (cap - 1))
        coefficient = (2**15 - 7 * (cap - 1), 2**15 + (cap - 1))
        for low, high in (radicand, coefficient):
            assert 0 < low and high < 2**16
        # the documented limit of 15 arguments on each side of either list
        assert 0 < 2**15 - 15 * (cap - 1) and 2**15 + 15 * (cap - 1) < 2**16

    def test_evaluators_pass_at_most_fifteen_arguments_per_list(self, monkeypatch):
        # the rows the evaluators' one expression adds to and subtracts from each vector,
        # read through a recording row source: (rad +, rad -, coef +, coef -)
        seen = set()
        expression = symbols._exponents

        def spy(rows, *args):
            seen.add(tuple(sum(sign == side for sign, _ in reads) for reads in exponent_reads(*args) for side in (1, -1)))
            return expression(rows, *args)

        monkeypatch.setattr(symbols, "_exponents", spy)
        sixj_exact(SpinSextuple.of(1, 2, 2, 2, 1, 2))
        for spins in [(1,) * 6, (1, 1.5, 1.5, 1.5, 1.5, 1), (0.5,) * 6]:  # alpha, beta, gamma
            sixj_super_exact(SpinSextuple.of(*map(Fraction, spins)))
        assert seen == {(12, 4, 1, 7)} and max(max(counts) for counts in seen) <= 15

    def test_legendre_rows_equal_the_table_rows(self, monkeypatch):
        # field by field, for every row of the table
        monkeypatch.setattr(exact, "_facts", EMPTY_TABLE)
        rows, primes, bits = exact._rows(exact._FACT_CAP + 1)
        assert bits == 16 and len(rows) == exact._FACT_CAP + 1
        legendre = exact._LegendreRows()
        for a in range(exact._FACT_CAP + 1):
            assert unpacked(legendre[a], len(primes), 32) == unpacked(rows[a], len(primes)), a
            assert legendre[a] >> 32 * len(primes) == 0

    def test_rows_past_the_cap_are_legendre_rows(self, monkeypatch):
        monkeypatch.setattr(exact, "_facts", EMPTY_TABLE)
        top = exact._FACT_CAP + 1  # 2049 = 3 * 683
        rows, primes, bits = exact._rows(top + 1)
        assert isinstance(rows, exact._LegendreRows) and bits == 32 and primes == primes_up_to(top)
        assert exact._facts is EMPTY_TABLE  # the table does not grow past the cap
        fact = math.factorial(top)
        for p, e in zip(primes, unpacked(rows[top], len(primes), 32)):
            assert fact % p**e == 0 and fact % p ** (e + 1) != 0, (p, e)

    def test_rows_below_n_take_the_primes_below_n(self, monkeypatch):
        # n = 2053 is prime, and no a! with a < n has it
        monkeypatch.setattr(exact, "_facts", EMPTY_TABLE)
        assert exact._rows(2053)[1] == primes_up_to(2052) != primes_up_to(2053)

    def test_table_at_least_doubles_when_it_grows(self, monkeypatch):
        monkeypatch.setattr(exact, "_facts", EMPTY_TABLE)
        for n, size in [(11, 11), (12, 22), (30, 44), (2000, 2000), (2001, 2049)]:
            assert len(exact._rows(n)[0]) == size

    def test_legendre_fields_cannot_overflow_below_the_cost_bound(self):
        # n = 12487512 is the largest n whose one-term cost 1001 n log2 n the bound accepts,
        # the n of {0 0 0; N N N} at N = 6243755; every row read is that of some a! with a <= n - 1
        n = 12487512
        assert 1001 * n * n.bit_length() <= symbols.MAX_EXACT_COST < 1001 * (n + 1) * (n + 1).bit_length()
        v, p = _sums(SpinSextuple.of(0, 0, 0, 6243755, 6243755, 6243755).doubled())
        w, m = symbols._brackets(v, p)
        assert symbols._bound(w, m, max(w), min(m)) == n == 2 * 6243756
        # the largest field of any row there, v_2((n - 1)!): n - 1 less its binary digit sum
        e = (n - 1) - bin(n - 1).count("1")
        assert e == sum((n - 1) >> i for i in range(1, n.bit_length())) and e <= n - 2
        # fifteen rows on either side, biased by 2**31, stay inside (0, 2**32)
        assert 0 < 2**31 - 15 * e and 2**31 + 15 * e < 2**32

    def test_rows_are_the_exponents_of_n_factorial(self, monkeypatch):
        monkeypatch.setattr(exact, "_facts", EMPTY_TABLE)
        factorial_symbol(1, [exact._FACT_CAP], [], [], [], 1)
        rows, primes = exact._facts
        assert len(rows) == exact._FACT_CAP + 1 and primes == primes_up_to(exact._FACT_CAP)
        for n in (0, 1, 2, 3, 10, 97, 720, 2047, 2048):
            fact = math.factorial(n)
            for p, e in zip(primes, unpacked(rows[n], len(primes))):
                assert fact % p**e == 0 and fact % p ** (e + 1) != 0, (n, p, e)

    @pytest.mark.parametrize("top", [exact._FACT_CAP, exact._FACT_CAP + 1])
    def test_table_and_legendre_agree_at_the_cap(self, monkeypatch, top):
        rng = random.Random(top)
        for _ in range(4):
            lists = (
                [top] + [rng.randint(0, top) for _ in range(11)],
                [rng.randint(0, top) for _ in range(4)],
                [rng.randint(0, top)],
                [rng.randint(0, top) for _ in range(7)],
            )
            num, den = rng.randint(-(10**9), 10**9), rng.choice([1, 4])
            values = []
            for cap in (top - 1, top):  # Legendre past the cap, the table up to it
                monkeypatch.setattr(exact, "_FACT_CAP", cap)
                monkeypatch.setattr(exact, "_facts", EMPTY_TABLE)
                values.append(factorial_symbol(num, *lists, den))
                assert len(exact._facts[0]) == (1 if cap < top else top + 1)
            assert values[0] == values[1]

    def test_growth_never_mutates_a_held_table(self, monkeypatch):
        monkeypatch.setattr(exact, "_facts", EMPTY_TABLE)
        factorial_symbol(1, [10], [], [], [], 1)
        held = exact._facts
        rows, primes = list(held[0]), list(held[1])
        factorial_symbol(1, [100], [3], [7], [2], 1)
        assert exact._facts is not held and len(exact._facts[0]) > len(rows)
        assert held == (rows, primes)
        assert exact._facts[0][: len(rows)] == rows
        assert EMPTY_TABLE == ([0], [])

    def test_threads_growing_the_table_get_correct_values(self, monkeypatch):
        rng = random.Random(71)
        cases = [[rng.randint(0, n) for _ in range(4)] for n in sorted(rng.randint(1, 2048) for _ in range(60))]
        monkeypatch.setattr(exact, "_FACT_CAP", 0)  # every case by Legendre
        monkeypatch.setattr(exact, "_facts", EMPTY_TABLE)
        want = [factorial_symbol(1, c[:2], c[2:3], c[3:], [], 1) for c in cases]
        monkeypatch.setattr(exact, "_FACT_CAP", 2048)
        monkeypatch.setattr(exact, "_facts", EMPTY_TABLE)
        wrong = []

        def work(seed):
            order = list(range(len(cases)))
            random.Random(seed).shuffle(order)
            for i in sorted(order[:40]):
                c = cases[i]
                if parts(factorial_symbol(1, c[:2], c[2:3], c[3:], [], 1)) != parts(want[i]):
                    wrong.append(i)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("a, b, c", [
        (10**5, 10**5, 0),
        (10**5, 10**5 + 1, 1),
        (Fraction(200001, 2), Fraction(199999, 2), 1),
        (99991, 100003, 12),
    ])
    def test_closed_form_above_the_cap(self, a, b, c):
        # {a b c; b a 0} = (-1)^(a+b+c) / sqrt((2a+1)(2b+1)): one term, factorials near 2 * 10**5
        value = sixj_exact(SpinSextuple.of(a, b, c, b, a, 0))
        sign = -1 if (a + b + c) % 2 else 1
        assert parts(value) == parts(ExactSymbol(Fraction(sign), Fraction(1, (2 * a + 1) * (2 * b + 1))))


# -- values built without a constructor ---------------------------------------


def fraction_view(q) -> tuple:
    """What a reader can see of a Fraction q: its type, value, hash, text, parts, float, sums and
    products with Fractions and ints, order, copies and pickles at every protocol; stdlib only,
    as other interpreters run it from its source."""
    import copy
    import pickle
    from fractions import Fraction
    others = [Fraction(1, 3), Fraction(-7, 2), Fraction(q.numerator, q.denominator), 0, 1, -5, 2**70]
    arithmetic = [(r, type(r)) for x in others for r in (q + x, x + q, q * x, x * q)]
    order = [(q < x, q <= x, q > x, q >= x, q == x, x == q, q != x) for x in others]
    again = [copy.copy(q), copy.deepcopy(q)]
    again += [pickle.loads(pickle.dumps(q, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    return (type(q), q.numerator, q.denominator, hash(q), repr(q), str(q), q.as_integer_ratio(), float(q),
            bool(q), arithmetic, order, [(type(c), c.numerator, c.denominator, c == q) for c in again])


def coprime(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, d >= 1 given."""
    g = math.gcd(n, d)
    return n // g, d // g


# a fixed sample for other interpreters: zero, units, d = 1, both signs, 40-digit ints
FRACTION_SAMPLE = [coprime(n, d) for n, d in [
    (0, 1), (1, 1), (-1, 1), (7, 1), (-10**40, 1), (1, 2), (-3, 70), (10**40, 3), (-(10**40) + 1, 10**40),
    (2**64 + 1, 2**63), (-(3**80), 2**127 - 1), (6, 35), (-15, 14), (10**40 - 1, 10**40 + 1)]]

_FRACTION_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from sixj.exact import _fraction
{view}
pairs = json.loads(sys.argv[2])
print(json.dumps([[n, d] for n, d in pairs if fraction_view(_fraction(n, d)) != fraction_view(Fraction(n, d))]))
"""


class TestFractionHelper:
    """exact._fraction(n, d), for coprime ints n and d >= 1, is the Fraction(n, d) a reader sees."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(-(10**40), 10**40), d=st.integers(1, 10**40))
    @example(n=0, d=1)
    @example(n=-5, d=1)
    @example(n=10**40, d=1)
    @example(n=-12, d=18)
    def test_is_the_constructed_fraction(self, n, d):
        n, d = coprime(n, d)
        assert fraction_view(exact._fraction(n, d)) == fraction_view(Fraction(n, d))

    def test_fixed_sample_on_every_other_interpreter(self):
        # the helper writes fractions' private slots, a CPython detail of each version
        found = other_interpreters()
        if not found:
            pytest.skip("no other CPython >= 3.10 is installed")
        src = str(Path(__file__).resolve().parents[1] / "src")
        child = _FRACTION_CHILD.format(view=inspect.getsource(fraction_view))
        mismatches = {}
        for version, exe in sorted(found.items()):
            run = subprocess.run([exe, "-I", "-B", "-c", child, src, json.dumps(FRACTION_SAMPLE)],
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, (version, run.stderr)
            mismatches[".".join(map(str, version))] = json.loads(run.stdout)
        assert all(not bad for bad in mismatches.values()), mismatches

    def test_from_prime_exponents_reduces_as_fraction_does(self):
        # one gcd, the sign moved onto the numerator: the slots Fraction(n, d) would hold
        for num, den in [(12, -18), (-12, -18), (0, -5), (7, -1), (-(10**30), 4 * 10**29), (3, 1)]:
            value = ExactSymbol.from_prime_exponents(num, [2, 3], [2, -1], [-1, 1], den)
            want = Fraction(num, den) * 3  # 2**(-1 + 1) * 3**1 * sqrt(1/3)
            assert fraction_view(value.coeff) == fraction_view(want if want else Fraction(0)), (num, den)
            assert fraction_view(value.radicand) == fraction_view(Fraction(1, 3) if want else Fraction(1))

    def test_zero_denominator_raises_as_fraction_does(self):
        for num in (3, 0, -2):
            with pytest.raises(ZeroDivisionError) as want:
                Fraction(num * 2, 0)
            with pytest.raises(ZeroDivisionError, match=f"^{re.escape(str(want.value))}$"):
                ExactSymbol.from_prime_exponents(num, [2], [0], [1], 0)

    def test_zero_and_radicand_one_share_their_fractions(self):
        # no allocation for 0 or for a radicand 1: every such value holds the module's two constants
        values = [ExactSymbol.zero(), ExactSymbol.from_prime_exponents(0, [2], [1], [0], 3)]
        values += [value for _, _, value in small_spin_values()]
        ones = {id(v.radicand) for v in values if v.radicand == 1}
        zeros = {id(v.coeff) for v in values if v.coeff == 0}
        assert ones == {id(exact._ONE)} and zeros == {id(exact._ZERO)}
        assert len(values) == 2 + 181 + 648 and sum(v.radicand == 1 for v in values) > 100


# every doubled sextuple of spins <= 3/2, built once: the tests below count Fraction constructors
SMALL_SEXTUPLES = [(d, SpinSextuple.of(*(Fraction(x, 2) for x in d))) for d in itertools.product(range(4), repeat=6)]


def small_spin_values() -> list:
    """(kind, parity, value) for every admissible sextuple of spins <= 3/2, kind "su2" or "osp12"."""
    out = []
    for d, s in SMALL_SEXTUPLES:
        for evaluate, kind in ((sixj_exact, "su2"), (sixj_super_exact, "osp12")):
            try:
                parity = _check(*_sums(d), kind)
            except SixjError:
                continue
            out.append((kind, parity, evaluate(s)))
    return out


def test_evaluations_run_no_fraction_constructor(monkeypatch):
    large = [SpinSextuple.of(1, 1, 1, 1, 1, 1).scaled(1201), SpinSextuple.of(*(Fraction(1, 2),) * 6).scaled(1201)]
    calls = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert Fraction(3, 6) == Fraction(1, 2) and len(calls) == 2  # the wrapper sees constructor calls
    calls.clear()
    small = small_spin_values()
    values = [sixj_exact(large[0]), sixj_super_exact(large[0]), sixj_super_exact(large[1])]
    assert calls == []
    monkeypatch.undo()
    # the sample holds SU(2) and every OSP(1|2) parity, zeros, radicands 1 and not 1, and rows past the table
    assert {(kind, parity) for kind, parity, _ in small} == {("osp12", p) for p in Parity} | {("su2", Parity.ALPHA)}
    values += [value for _, _, value in small]
    assert len(values) == 3 + 181 + 648 and any(v.is_zero for v in values)
    assert any(v.radicand != 1 for v in values) and any(v.radicand == 1 and not v.is_zero for v in values)
    brackets = [_brackets(*_sums(s.doubled())) for s in large]
    assert min(_bound(w, m, max(w), min(m)) for w, m in brackets) > exact._FACT_CAP + 1


OLD_PICKLES = [  # (how to rebuild the value, its protocol-0 and protocol-5 pickles)
    (sixj_exact, (2, 2, 2, 2, 2, 2),  # 1/6 * sqrt(1): radicand 1
     b'c__builtin__\ngetattr\np0\n(csixj.exact\nExactSymbol\np1\nV_stored\np2\ntp3\nRp4\n(c'
     b'fractions\nFraction\np5\n(I1\nI6\ntp6\nRp7\ng5\n(I1\nI1\ntp8\nRp9\ntp10\nRp11\n.',
     b'\x80\x05\x95r\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07getattr\x94\x93'
     b'\x94\x8c\nsixj.exact\x94\x8c\x0bExactSymbol\x94\x93\x94\x8c\x07_stored\x94\x86\x94R'
     b'\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x06\x86\x94R\x94h\x0bK\x01'
     b'K\x01\x86\x94R\x94\x86\x94R\x94.'),
    (sixj_super_exact, (1, 1, 1, 1, 2, 2),  # -3/2 * sqrt(1/3): radicand 1/3, negative
     b'c__builtin__\ngetattr\np0\n(csixj.exact\nExactSymbol\np1\nV_stored\np2\ntp3\nRp4\n(c'
     b'fractions\nFraction\np5\n(I-3\nI2\ntp6\nRp7\ng5\n(I1\nI3\ntp8\nRp9\ntp10\nRp11\n.',
     b'\x80\x05\x95u\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07getattr\x94\x93'
     b'\x94\x8c\nsixj.exact\x94\x8c\x0bExactSymbol\x94\x93\x94\x8c\x07_stored\x94\x86\x94R'
     b'\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94J\xfd\xff\xff\xffK\x02\x86\x94R'
     b'\x94h\x0bK\x01K\x03\x86\x94R\x94\x86\x94R\x94.'),
    (sixj_exact, (3, 3, 4, 4, 4, 3),  # 0 * sqrt(1): zero
     b'c__builtin__\ngetattr\np0\n(csixj.exact\nExactSymbol\np1\nV_stored\np2\ntp3\nRp4\n(c'
     b'fractions\nFraction\np5\n(I0\nI1\ntp6\nRp7\ng5\n(I1\nI1\ntp8\nRp9\ntp10\nRp11\n.',
     b'\x80\x05\x95r\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07getattr\x94\x93'
     b'\x94\x8c\nsixj.exact\x94\x8c\x0bExactSymbol\x94\x93\x94\x8c\x07_stored\x94\x86\x94R'
     b'\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x00K\x01\x86\x94R\x94h\x0bK\x01'
     b'K\x01\x86\x94R\x94\x86\x94R\x94.'),
    (sixj_exact, (0, 0, 0, 1, 1, 1),  # -1 * sqrt(1/2): negative, radicand 1/2
     b'c__builtin__\ngetattr\np0\n(csixj.exact\nExactSymbol\np1\nV_stored\np2\ntp3\nRp4\n(c'
     b'fractions\nFraction\np5\n(I-1\nI1\ntp6\nRp7\ng5\n(I1\nI2\ntp8\nRp9\ntp10\nRp11\n.',
     b'\x80\x05\x95u\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07getattr\x94\x93'
     b'\x94\x8c\nsixj.exact\x94\x8c\x0bExactSymbol\x94\x93\x94\x8c\x07_stored\x94\x86\x94R'
     b'\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94J\xff\xff\xff\xffK\x01\x86\x94R'
     b'\x94h\x0bK\x01K\x02\x86\x94R\x94\x86\x94R\x94.'),
    (ExactSymbol, (Fraction(-5, 7), Fraction(10, 21)),  # a radicand with both sides
     b'c__builtin__\ngetattr\np0\n(csixj.exact\nExactSymbol\np1\nV_stored\np2\ntp3\nRp4\n(c'
     b'fractions\nFraction\np5\n(I-5\nI7\ntp6\nRp7\ng5\n(I10\nI21\ntp8\nRp9\ntp10\nRp11\n.',
     b'\x80\x05\x95u\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07getattr\x94\x93'
     b'\x94\x8c\nsixj.exact\x94\x8c\x0bExactSymbol\x94\x93\x94\x8c\x07_stored\x94\x86\x94R'
     b'\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94J\xfb\xff\xff\xffK\x07\x86\x94R'
     b'\x94h\x0bK\nK\x15\x86\x94R\x94\x86\x94R\x94.'),
]


def _rebuilt(build, args) -> ExactSymbol:
    return build(*args) if build is ExactSymbol else build(SpinSextuple.of(*(Fraction(x, 2) for x in args)))


@pytest.mark.parametrize("build, args, protocol0, protocol5", OLD_PICKLES,
                         ids=["radicand-1", "radicand-1/3", "zero", "radicand-1/2", "radicand-10/21"])
def test_pickles_of_the_earlier_record_layout_still_load(build, args, protocol0, protocol5):
    # pickled when records were built by object.__setattr__; they load through _stored
    value = _rebuilt(build, args)
    for data in (protocol0, protocol5):
        loaded = pickle.loads(data)
        assert type(loaded) is ExactSymbol and parts(loaded) == parts(value) and hash(loaded) == hash(value)
        assert repr(loaded) == repr(value)
