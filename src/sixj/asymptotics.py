"""Closed-form large-scaling limits of the standard and supersymmetric symbols.

Under rescaling of all six spins by k the standard symbol oscillates with an
envelope proportional to k**-1.5; the supersymmetric symbols decay like
k**-0.5.  Every coefficient entering the amplitudes (saddle coefficients,
volume, triangle products, shift magnitudes) is evaluated on the UNSCALED
sextuple; k enters only through sqrt(k) factors and the linear-in-k cosine
arguments built from the exterior dihedral angles.

The two-term forms a*cos(x) + b*sin(x) are presented as N*cos(x - psi) with a
quadrant-correct psi = atan2(b, a).  For beta parity the cosine coefficient
carries both the 2*prod(v_i)*(v+v'-pbar-pbar') term and the B*(pbar*pbar'-vv')
term, and the fourth-root factor uses the grouping that reproduces the exact
evaluator at large k (see the acceptance tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateFactorError, KParityError, UndefinedShiftError
from .geometry import TetGeometry, tet_from_spins
from .triangles import (
    BetaDecomposition,
    Parity,
    SpinSextuple,
    TriangleData,
    beta_decompose,
    check_admissible,
    classify_parity,
    triangle_sums,
)

STANDARD = "standard"


@dataclass(frozen=True, slots=True)
class AsymptoticResult:
    """Envelope amplitude, full cosine argument and their product.

    ``value == amplitude * cos(angle)`` as computed; global signs are folded
    into the angle as a pi offset so the amplitude stays non-negative.
    """

    amplitude: float
    angle: float
    value: float
    parity_used: str


@dataclass(frozen=True, slots=True)
class ShiftPair:
    """Magnitude N and phase psi with a*cos(x) + b*sin(x) = N*cos(x - psi)."""

    magnitude: float
    phase: float


def shift_from_components(a: float, b: float) -> ShiftPair:
    """Combine cosine/sine coefficients into a single shifted cosine."""
    if a == 0.0 and b == 0.0:
        raise UndefinedShiftError("both cosine and sine coefficients vanish")
    return ShiftPair(math.hypot(a, b), math.atan2(b, a))


def saddle_coeff_a(s: SpinSextuple) -> Fraction:
    """Twice the sum of opposite-edge spin products: 2(j1 J1 + j2 J2 + j3 J3)."""
    return 2 * _opposite_product_sum(s)


def saddle_coeff_b(s: SpinSextuple) -> Fraction:
    """Volume-dimension coefficient (sum j*J)(sum p) + 2(j1j2j3 + j1J2J3 + j2J3J1 + j3J1J2)."""
    j1, j2, j3, J1, J2, J3 = (x.as_fraction() for x in s.spins)
    p_total = 2 * (j1 + j2 + j3 + J1 + J2 + J3)
    triples = j1 * j2 * j3 + j1 * J2 * J3 + j2 * J3 * J1 + j3 * J1 * J2
    return _opposite_product_sum(s) * p_total + 2 * triples


def saddle_coeff_c(t: TriangleData) -> Fraction:
    """Product of the four triangle sums."""
    out = Fraction(1)
    for vi in t.v:
        out *= vi.as_fraction()
    return out


def _opposite_product_sum(s: SpinSextuple) -> Fraction:
    j1, j2, j3, J1, J2, J3 = (x.as_fraction() for x in s.spins)
    return j1 * J1 + j2 * J2 + j3 * J3


def _beta_components(
    s: SpinSextuple, t: TriangleData, bd: BetaDecomposition, vol24: float
) -> tuple[float, float]:
    """Cosine and sine coefficients of the beta two-term form."""
    c = saddle_coeff_c(t)
    b = saddle_coeff_b(s)
    w = bd.pbar.as_fraction() * bd.pbar_prime.as_fraction() - bd.v.as_fraction() * bd.v_prime.as_fraction()
    u = bd.v.as_fraction() + bd.v_prime.as_fraction() - bd.pbar.as_fraction() - bd.pbar_prime.as_fraction()
    return float(2 * c * u + b * w), vol24 * float(w)


def shift_pair(
    parity: Parity,
    s: SpinSextuple,
    t: TriangleData | None = None,
    bd: BetaDecomposition | None = None,
    geo: TetGeometry | None = None,
) -> ShiftPair:
    """Per-parity (N, psi) of the oscillatory part.

    alpha: N = sqrt(B^2 + (24V)^2), psi = atan2(24V, B); gamma shares N with
    psi negated; beta combines the full cosine coefficient (including the
    B-term) with 24V*(pbar*pbar' - vv').
    """
    t = t or triangle_sums(s)
    geo = geo or tet_from_spins(s)
    vol24 = 24.0 * geo.volume
    if parity is Parity.ALPHA:
        return shift_from_components(float(saddle_coeff_b(s)), vol24)
    if parity is Parity.GAMMA:
        base = shift_from_components(float(saddle_coeff_b(s)), vol24)
        return ShiftPair(base.magnitude, -base.phase)
    bd = bd or beta_decompose(s, t)
    a, b = _beta_components(s, t, bd, vol24)
    return shift_from_components(a, b)


def dihedral_phase(
    kind: str,
    s: SpinSextuple,
    k: int,
    geo: TetGeometry,
    jstar_slot: int | None = None,
) -> float:
    """Accumulated dihedral-angle phase of the cosine argument.

    standard / alpha: sum (k*j + 1/2) theta_j over all six edges;
    gamma: k * sum j theta_j (no half offsets);
    beta: the alpha form plus theta_jstar / 2 (one edge promoted to k*j + 1).
    """
    spins = [float(x) for x in s.spins]
    th = geo.theta_ext
    if kind == "gamma":
        return k * sum(j * t for j, t in zip(spins, th))
    total = sum((k * j + 0.5) * t for j, t in zip(spins, th))
    if kind == "beta":
        if jstar_slot is None:
            raise ValueError("beta phase needs the jstar slot")
        return total + 0.5 * th[jstar_slot]
    if kind in ("standard", "alpha"):
        return total
    raise ValueError(f"unknown phase kind {kind!r}")


def asym_standard(s: SpinSextuple, k: int, geo: TetGeometry | None = None) -> AsymptoticResult:
    """Large-k standard 6j: cos(pi/4 + phi_k) / sqrt(12 pi k^3 V).

    Raises the AdmissibilityError of the exact evaluator unless the rescaled
    sextuple k*s is SU(2)-admissible.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    check_admissible(triangle_sums(s.scaled(k)), "su2")
    geo = geo or tet_from_spins(s)
    amplitude = 1.0 / math.sqrt(12.0 * math.pi * k**3 * geo.volume)
    angle = 0.25 * math.pi + dihedral_phase("standard", s, k, geo)
    return AsymptoticResult(amplitude, angle, amplitude * math.cos(angle), STANDARD)


def asym_alpha(s: SpinSextuple, k: int, geo: TetGeometry | None = None) -> AsymptoticResult:
    """Large-k alpha supersymmetric symbol (also the even-k limit of beta/gamma).

    N_alpha * cos(pi/4 + phi_k - psi_alpha) / (sqrt(48 pi k V) sqrt(prod v_i)).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    t = triangle_sums(s)
    if k % 2 and classify_parity(t) is not Parity.ALPHA:
        raise KParityError("odd-k alpha formula needs an alpha-parity sextuple")
    geo = geo or tet_from_spins(s)
    sp = shift_pair(Parity.ALPHA, s, t, geo=geo)
    amplitude = sp.magnitude / (
        math.sqrt(48.0 * math.pi * k * geo.volume) * math.sqrt(float(saddle_coeff_c(t)))
    )
    angle = 0.25 * math.pi + dihedral_phase("alpha", s, k, geo) - sp.phase
    return AsymptoticResult(amplitude, angle, amplitude * math.cos(angle), Parity.ALPHA.value)


def asym_gamma(s: SpinSextuple, k: int, geo: TetGeometry | None = None) -> AsymptoticResult:
    """Large odd-k gamma supersymmetric symbol.

    (-1)^(1 + sum p_j) N_alpha cos(pi/4 + phi_kgamma + psi_alpha)
        / (sqrt(48 pi k V) sqrt(prod v_i));
    even k must be routed to the alpha formula instead.

    The 1/sqrt(prod v_i) factor follows from the large-k form of the gamma
    prefactor, whose denominator contributes one power of each triangle sum;
    the exact evaluator confirms it (the envelope ratio converges to 1 with
    the factor and to sqrt(prod v_i) without it).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k % 2 == 0:
        raise KParityError("gamma formula holds for odd k; use the alpha formula for even k")
    t = triangle_sums(s)
    if classify_parity(t) is not Parity.GAMMA:
        raise KParityError("gamma formula needs a gamma-parity sextuple")
    geo = geo or tet_from_spins(s)
    sp = shift_pair(Parity.ALPHA, s, t, geo=geo)
    amplitude = sp.magnitude / (
        math.sqrt(48.0 * math.pi * k * geo.volume) * math.sqrt(float(saddle_coeff_c(t)))
    )
    angle = 0.25 * math.pi + dihedral_phase("gamma", s, k, geo) + sp.phase
    if (1 + int(t.p_sum)) % 2:
        angle += math.pi
    return AsymptoticResult(amplitude, angle, amplitude * math.cos(angle), Parity.GAMMA.value)


def asym_beta(
    s: SpinSextuple,
    k: int,
    geo: TetGeometry | None = None,
    bd: BetaDecomposition | None = None,
) -> AsymptoticResult:
    """Large odd-k beta supersymmetric symbol.

    Combines the area-dimension fourth root of prod (p_j - v_i) * prod v_i,
    the sqrt((p-v)(p-v') / (vbar vbar')) factor, a dimensionless fourth root
    over the six mixed quadrangle-triangle differences, and the shifted
    cosine with the beta phase (the jstar edge carries an extra half angle).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k % 2 == 0:
        raise KParityError("beta formula holds for odd k; use the alpha formula for even k")
    t = triangle_sums(s)
    if classify_parity(t) is not Parity.BETA:
        raise KParityError("beta formula needs a beta-parity sextuple")
    geo = geo or tet_from_spins(s)
    bd = bd or beta_decompose(s, t)

    area4 = Fraction(1)
    for pj in t.p:
        for vi in t.v:
            area4 *= (pj - vi).as_fraction()
    for vi in t.v:
        area4 *= vi.as_fraction()
    if area4 <= 0:
        raise DegenerateFactorError("degenerate triangle: fourth-root area factor vanishes")

    p, v, vp = bd.p.as_fraction(), bd.v.as_fraction(), bd.v_prime.as_fraction()
    pb, pbp = bd.pbar.as_fraction(), bd.pbar_prime.as_fraction()
    vb, vbp = bd.vbar.as_fraction(), bd.vbar_prime.as_fraction()
    front = (p - v) * (p - vp) / (vb * vbp)
    mixed_int = (p - v) * (p - vp) * (pb - v) * (pb - vp) * (pbp - v) * (pbp - vp) * v * vp
    mixed_half = (pb - vb) * (pb - vbp) * (pbp - vb) * (pbp - vbp) * (p - vb) * (p - vbp) * vb * vbp
    if front <= 0 or mixed_int <= 0 or mixed_half <= 0:
        raise DegenerateFactorError("degenerate triangle: fourth-root factor vanishes")

    sp = shift_pair(Parity.BETA, s, t, bd, geo=geo)
    amplitude = (
        sp.magnitude
        * math.sqrt(float(front))
        * float(mixed_half / mixed_int) ** 0.25
        / (math.sqrt(48.0 * math.pi * k * geo.volume) * float(area4) ** 0.25)
    )
    angle = 0.25 * math.pi + dihedral_phase("beta", s, k, geo, bd.jstar_slot) - sp.phase
    if int(bd.v + bd.v_prime - bd.p) % 2:
        angle += math.pi
    return AsymptoticResult(amplitude, angle, amplitude * math.cos(angle), Parity.BETA.value)


def asym_for_scaled(s: SpinSextuple, k: int, geo: TetGeometry | None = None) -> AsymptoticResult:
    """Route a supersymmetric sextuple to the formula matching the parity of k*s.

    Raises the AdmissibilityError of the exact evaluator unless the rescaled
    sextuple k*s is OSP(1|2)-admissible, before any geometry is built.
    """
    t = triangle_sums(s.scaled(k))
    check_admissible(t, "osp12")
    parity = classify_parity(t)
    geo = geo or tet_from_spins(s)
    if parity is Parity.ALPHA:
        return asym_alpha(s, k, geo)
    if parity is Parity.GAMMA:
        return asym_gamma(s, k, geo)
    return asym_beta(s, k, geo)
