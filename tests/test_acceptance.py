"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each criterion records its line with acceptance_report; conftest echoes the
collected lines in the terminal summary, so the report survives pytest's
output capture.  Assertion failures still fail the test as usual.
"""

import math
import random
import time
from fractions import Fraction

import acceptance_report

from sixj import (
    HalfInt,
    Parity,
    SpinSextuple,
    discriminant_check,
    envelope_slope,
    scan,
    sixj_exact,
    sixj_super_exact,
    tet_from_spins,
)
from sixj.geometry import cayley_menger, saddle_coeff_b, saddle_coeff_c
from sixj.scan import local_maxima
from sixj.triangles import beta_decompose, classify_parity, rescale, triangle_sums
from cores import frontal_sign, monomial4, phase, shift
from oracles import (
    cayley_menger_det,
    frontal_sign_closed_form,
    parts,
    racah_sixj,
    random_admissible,
    super_monomial,
    super_sixj_alpha_direct,
    super_sixj_direct,
)

HALF = Fraction(1, 2)
ALL_ONES = SpinSextuple.of(1, 1, 1, 1, 1, 1)
ALL_HALVES = SpinSextuple.of(*([HALF] * 6))
# the beta convergence target: an admissible beta sextuple with positive
# discriminant (a Euclidean tetrahedron), scanned at odd k
BETA_EUCLIDEAN = SpinSextuple.of(1, Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), 1)


def report(num: int, ok: bool, detail: str) -> None:
    print(acceptance_report.record(num, ok, detail))


def su2_sextuples(max_twice: int):
    """Every su2-admissible sextuple with doubled spins <= max_twice."""
    def ok(a, b, c):
        return (a + b + c) % 2 == 0 and a + b >= c and b + c >= a and c + a >= b

    r = range(max_twice + 1)
    for tj1 in r:
        for tj2 in r:
            for tj3 in r:
                if not ok(tj1, tj2, tj3):
                    continue
                for tJ1 in r:
                    for tJ2 in r:
                        if not ok(tJ1, tJ2, tj3):
                            continue
                        for tJ3 in r:
                            if ok(tJ1, tj2, tJ3) and ok(tj1, tJ2, tJ3):
                                yield SpinSextuple(
                                    HalfInt(tj1), HalfInt(tj2), HalfInt(tj3),
                                    HalfInt(tJ1), HalfInt(tJ2), HalfInt(tJ3),
                                )


def osp_sextuples(max_twice: int):
    """Every osp12-admissible sextuple with doubled spins <= max_twice."""
    def ok(a, b, c):
        return a + b >= c and b + c >= a and c + a >= b

    r = range(max_twice + 1)
    for tj1 in r:
        for tj2 in r:
            for tj3 in r:
                if not ok(tj1, tj2, tj3):
                    continue
                for tJ1 in r:
                    for tJ2 in r:
                        if not ok(tJ1, tJ2, tj3):
                            continue
                        for tJ3 in r:
                            if ok(tJ1, tj2, tJ3) and ok(tj1, tJ2, tJ3):
                                yield SpinSextuple(
                                    HalfInt(tj1), HalfInt(tj2), HalfInt(tj3),
                                    HalfInt(tJ1), HalfInt(tJ2), HalfInt(tJ3),
                                )


def test_criterion_1_standard_oracle_equivalence():
    started = time.time()
    count = 0
    for s in su2_sextuples(8):  # spins <= 4
        mine = sixj_exact(s)
        ref = racah_sixj([x.as_fraction() for x in s.spins])
        assert parts(mine) == parts(ref), f"standard mismatch at {s}: {mine} vs {ref}"
        count += 1
    elapsed = time.time() - started
    ok = count > 2000 and elapsed < 300.0
    report(1, ok, f"standard evaluator == Racah oracle on {count} sextuples ({elapsed:.1f}s)")
    assert ok


def test_criterion_2_super_oracle_equivalence():
    started = time.time()
    count = 0
    for s in osp_sextuples(6):  # spins <= 3
        mine = sixj_super_exact(s)
        ref = super_sixj_direct([x.as_fraction() for x in s.spins])
        assert parts(mine) == parts(ref), f"super mismatch at {s}: {mine} vs {ref}"
        count += 1
    elapsed = time.time() - started
    ok = count > 2000
    report(2, ok, f"super evaluator == direct-summation oracle on {count} sextuples ({elapsed:.1f}s)")
    assert ok


def test_criterion_3_discriminant_identity():
    alg, geo = discriminant_check(ALL_ONES)
    assert alg == 8.0 and geo == 8.0
    rng = random.Random(101)
    checked = 0
    worst = 0.0
    while checked < 1000:
        s = SpinSextuple(*(HalfInt(rng.randint(1, 40)) for _ in range(6)))
        cm = cayley_menger(s)
        # both sides of discriminant_check read the same integer; the
        # determinant itself is checked against the independent oracle
        assert cm == cayley_menger_det([x.as_fraction() for x in s.spins]), s
        if cm <= 0:
            continue
        alg, geo = discriminant_check(s)
        err = abs(alg - geo)
        bound = 1e-9 * max(1.0, abs(alg))
        assert err <= bound, (s, alg, geo)
        worst = max(worst, err / bound if bound else 0.0)
        checked += 1
    report(3, True, f"4AC - B^2 == 576 V^2 on {checked} Euclidean sextuples + exact pencil case")


def test_criterion_4_standard_decay():
    started = time.time()
    records = scan(ALL_ONES, "su2", list(range(10, 201)))
    fit = envelope_slope(records)
    slope_ok = abs(fit.slope - (-1.5)) <= 0.15
    peaks = [r for r in local_maxima(records) if r.k >= 100]
    assert peaks, "no envelope maxima at k >= 100"
    worst = max(abs(r.exact.to_float() - r.asym) / r.amplitude for r in peaks)
    point_ok = worst < 0.05
    elapsed = time.time() - started
    ok = slope_ok and point_ok and elapsed < 120.0
    report(
        4,
        ok,
        f"standard envelope slope {fit.slope:.3f} (target -1.5 +- 0.15), "
        f"max phase-sensitive error {worst:.3f} at {len(peaks)} maxima ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_5_super_slower_decay():
    started = time.time()
    records = scan(ALL_HALVES, "super", list(range(21, 302, 2)))
    fit = envelope_slope(records)
    slope_ok = abs(fit.slope - (-0.5)) <= 0.15
    peaks = [r for r in local_maxima(records) if r.k >= 101]
    assert peaks, "no envelope maxima at odd k >= 101"
    worst = max(abs(abs(r.asym) / abs(r.exact.to_float()) - 1.0) for r in peaks)
    envelope_ok = worst <= 0.05
    elapsed = time.time() - started
    ok = slope_ok and envelope_ok and elapsed < 300.0
    report(
        5,
        ok,
        f"gamma envelope slope {fit.slope:.3f} (target -0.5 +- 0.15), "
        f"worst envelope mismatch {100 * worst:.2f}% at {len(peaks)} maxima ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_6_beta_convergence():
    records = scan(BETA_EUCLIDEAN, "super", list(range(21, 302, 2)))
    peaks = [r for r in local_maxima(records) if r.k >= 151]
    assert peaks, "no envelope maxima at odd k >= 151"
    worst = max(abs(abs(r.asym) / abs(r.exact.to_float()) - 1.0) for r in peaks)
    ratio_ok = worst <= 0.10

    geo = tet_from_spins(BETA_EUCLIDEAN)
    bd = beta_decompose(BETA_EUCLIDEAN, triangle_sums(BETA_EUCLIDEAN))
    offset_ok = True
    for k in range(21, 302, 2):
        diff = phase(Parity.BETA, BETA_EUCLIDEAN, k, geo) - phase(None, BETA_EUCLIDEAN, k, geo)
        if abs(diff - 0.5 * geo.theta_ext[bd.jstar_slot]) > 1e-12:
            offset_ok = False
            break
    ok = ratio_ok and offset_ok
    report(
        6,
        ok,
        f"beta envelope ratio within {100 * worst:.2f}% of 1 at {len(peaks)} maxima "
        f"(target 10%), jstar angle offset exact to 1e-12",
    )
    assert ok


def test_criterion_7_parity_transitions_and_even_k_collapse():
    rng = random.Random(102)
    expected = {
        ("alpha", 0): Parity.ALPHA,
        ("alpha", 1): Parity.ALPHA,
        ("beta", 0): Parity.ALPHA,
        ("beta", 1): Parity.BETA,
        ("gamma", 0): Parity.ALPHA,
        ("gamma", 1): Parity.GAMMA,
    }
    for parity in ("alpha", "beta", "gamma"):
        for s in random_admissible(rng, parity=parity, n=1000, max_twice=8):
            for k in (2, 3, 4, 5):
                _, got = rescale(s, k)
                assert got is expected[(parity, k % 2)], (s, k, got)

    checked = 0
    for parity in ("beta", "gamma"):
        for s in random_admissible(rng, parity=parity, n=120, max_twice=6):
            for k in (2, 4):
                scaled = s.scaled(k)
                generic = sixj_super_exact(scaled)
                special = super_sixj_alpha_direct([x.as_fraction() for x in scaled.spins])
                assert parts(generic) == parts(special), (s, k)
                checked += 1
    report(
        7,
        True,
        f"parity transitions exact on 3x1000 sextuples x k in 2..5; "
        f"even-k generic == alpha-specialised on {checked} evaluations",
    )


def test_criterion_8_phase_suite():
    rng = random.Random(103)
    for parity in ("alpha", "beta", "gamma"):
        for s in random_admissible(rng, parity=parity, n=1000, max_twice=10):
            closed = frontal_sign_closed_form([x.as_fraction() for x in s.spins])
            for k in (1, 3, 5):
                assert frontal_sign(s, k) == closed, (s, k)
    report(8, True, "frontal sign == parity closed forms for odd k on 3x1000 sextuples")


def test_criterion_9_monomial_positivity_and_rearrangement():
    rng = random.Random(104)
    for s in random_admissible(rng, n=1000, max_twice=10):
        # the evaluator's monomial, times 4, against the oracle's defining forms
        _, (c0, c1) = monomial4(s)
        assert (c0, c1) == tuple(4 * c for c in super_monomial([x.as_fraction() for x in s.spins])), s
        assert c0 % 4 == 0 and c0 > 0, (s, c0)
        for t_index in range(4):
            assert c0 + c1 * t_index == c1 * (t_index + 1) + (c0 - c1)
    report(9, True, "monomial(0) positive integer and regrouped form identical on 1000 sextuples")


def test_criterion_10_shift_identity():
    rng = random.Random(105)
    xs = [-8.0 + 16.0 * i / 99.0 for i in range(100)]
    checked = 0
    for parity in ("alpha", "beta", "gamma"):
        for s in random_admissible(
            rng, parity=parity, n=30, max_twice=10, min_twice=1, require_euclidean=True
        ):
            t = triangle_sums(s)
            bd = beta_decompose(s, t) if parity == "beta" else None
            geo = tet_from_spins(s)
            n, psi = shift(classify_parity(t), s, geo)
            if parity == "beta":
                w = bd.pbar.as_fraction() * bd.pbar_prime.as_fraction() - bd.v.as_fraction() * bd.v_prime.as_fraction()
                u = bd.v.as_fraction() + bd.v_prime.as_fraction() - bd.pbar.as_fraction() - bd.pbar_prime.as_fraction()
                a = 2.0 * float(saddle_coeff_c(t)) * float(u) + float(saddle_coeff_b(s)) * float(w)
                b = 24.0 * geo.volume * float(w)
            elif parity == "alpha":
                a = float(saddle_coeff_b(s))
                b = 24.0 * geo.volume
            else:
                # gamma: N cos(x - psi_gamma) == a cos x - b sin x with psi negated
                a = float(saddle_coeff_b(s))
                b = -24.0 * geo.volume
            for x in xs:
                lhs = a * math.cos(x) + b * math.sin(x)
                rhs = n * math.cos(x - psi)
                assert abs(lhs - rhs) <= 1e-12 * n, (s, x)
            checked += 1
    report(10, True, f"a cos x + b sin x == N cos(x - psi) to 1e-12 N on {checked} shift pairs x 100 points")
