"""Closed-form large-scaling limits of the standard and supersymmetric symbols.

Under rescaling of all six spins by k the standard symbol oscillates with an
envelope proportional to k**-1.5; the supersymmetric symbols decay like
k**-0.5.  Every coefficient entering the amplitudes (saddle coefficients,
volume, triangle products, shift magnitudes) is evaluated on the UNSCALED
sextuple; k enters only through sqrt(k) factors and the linear-in-k cosine
arguments built from the exterior dihedral angles.

All three supersymmetric parities share one formula, built by one router on
the doubled spins:

    N cos(pi/4 + phase - psi) / sqrt(48 pi k V) x (per-parity factor)

- the phase sums (k j + 1/2) theta_j over the six edges; gamma drops the
  half offsets and beta adds theta_jstar / 2;
- alpha and gamma take (N, psi) from B cos x + 24V sin x, gamma with psi
  negated; beta combines the cosine coefficient 2C(v+v'-pbar-pbar') +
  B(pbar pbar' - v v') with 24V (pbar pbar' - v v');
- the factor is 1/sqrt(prod v_i) for alpha and gamma; for beta it is the
  sqrt((p-v)(p-v') / (vbar vbar')) factor and the fourth roots over the
  mixed quadrangle-triangle differences, with the grouping that reproduces
  the exact evaluator at large k (see the acceptance tests);
- the global sign is the exact evaluator's frontal sign: the angle gains pi
  when k * 4 sum j*J is odd.

Every entry runs one gate, _scaled: the exact evaluator's admissibility check
of k*s, whose parity the router takes (so even k takes the alpha formula),
KParityError in a per-parity entry at another parity, the geometry (a geo
passed in must have the lengths of s, and s is refused as tet_from_spins(s)
refuses it: a flat or non-Euclidean s raises NonEuclideanError either way),
and then the float formulas' domain, k * max(2j) < 2**40 on exact ints, where
the cosine argument is rounded to 2**-10 rad at most.  That gate is the only
refusal: past it every root has a positive argument and every phase shift is
defined.  The two-term forms a cos(x) + b sin(x) are N cos(x - psi) with a
quadrant-correct psi = atan2(b, a).
"""

from __future__ import annotations

import math

from .errors import KParityError
from .geometry import TetGeometry, _saddle, _unflat_cm64, tet_from_spins
# bound here as well: perfbench/tracer.py resolves the saddle coefficients in this module
from .geometry import saddle_coeff_a, saddle_coeff_b, saddle_coeff_c  # noqa: F401
from .record import Record
from .triangles import Parity, SpinSextuple, _beta_split, _check, _jj, _scale_factor, _sums

STANDARD = "standard"
# k * max(2j) < 2**40: the exterior angles sum to under 4 pi, so |angle| < 2**43 is rounded to
# 2**-10 rad at most and every float product is finite.  Against 60 digits the float angles are good
# to 1.8e-14 rad on 400 random tetrahedra (7.5e-4 rad of phase at the bound), and to 1.1e-10 rad on
# 1200 near-flat ones past the flatness refusal (8.9e-3 rad of phase): see README, "CLI".
_DOMAIN = 2**40


class AsymptoticResult(Record):
    """Envelope amplitude, full cosine argument and their product.

    ``value == amplitude * cos(angle)`` as computed; global signs are folded
    into the angle as a pi offset so the amplitude stays non-negative.
    """

    __slots__ = ("amplitude", "angle", "value", "parity_used")
    amplitude: float
    angle: float
    value: float
    parity_used: str


def _polar(a: float, b: float) -> tuple[float, float]:
    """(N, psi) with a*cos(x) + b*sin(x) = N*cos(x - psi)."""
    return math.hypot(a, b), math.atan2(b, a)


def _shift(parity: Parity, d, v, split, vol24: float) -> tuple[float, float]:
    """Per-parity (N, psi) from the doubled spins d, sums v and, for beta, the split.

    alpha: N = sqrt(B^2 + (24V)^2), psi = atan2(24V, B); gamma shares N with
    psi negated; beta combines the full cosine coefficient (including the
    B-term) with 24V*(pbar*pbar' - vv').  The sine coefficient is never 0, so
    psi is defined: V > 0, and the doubled pbar*pbar' - vv' is odd.
    """
    _, b4, c16 = _saddle(d, v)
    if split is None:
        n, psi = _polar(b4 / 4, vol24)
        return (n, psi) if parity is Parity.ALPHA else (n, -psi)
    V, Vp, _, _, _, Pb, Pbp, *_ = split
    w4 = Pb * Pbp - V * Vp
    return _polar((c16 * (V + Vp - Pb - Pbp) + b4 * w4) / 16, vol24 * (w4 / 4))


def _running_sum(xs) -> float:
    """The floats xs added left to right, as sum() adds them before Python 3.12;
    later sum() compensates the rounding and would print other last digits."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _phase(spins, k: int, theta, gamma: bool = False, slot: int | None = None) -> float:
    """Accumulated dihedral-angle phase of the cosine argument.

    Standard and alpha: sum (k j + 1/2) theta_j over all six edges; gamma:
    k sum j theta_j (no half offsets); beta: the alpha form plus
    theta_slot / 2 at the jstar slot (one edge promoted to k j + 1).
    """
    if gamma:
        return k * _running_sum(j * t for j, t in zip(spins, theta))
    total = _running_sum((k * j + 0.5) * t for j, t in zip(spins, theta))
    return total if slot is None else total + 0.5 * theta[slot]


def _beta_factors(v, p, split) -> tuple[float, float, float]:
    """sqrt argument, fourth-root ratio and fourth-root area of the beta amplitude.

    Every factor is positive: the twelve p_j - v_i are the faces' triangle
    inequalities, and a face with a zero one, or a zero v_i, is flat, which
    makes CM <= 0, refused by the gate.
    """
    area = math.prod(pj - vi for pj in p for vi in v) * math.prod(v)
    V, Vp, Vb, Vbp, P, Pb, Pbp, *_ = split
    mixed_int = (P - V) * (P - Vp) * (Pb - V) * (Pb - Vp) * (Pbp - V) * (Pbp - Vp) * V * Vp
    mixed_half = (Pb - Vb) * (Pb - Vbp) * (Pbp - Vb) * (Pbp - Vbp) * (P - Vb) * (P - Vbp) * Vb * Vbp
    front = (P - V) * (P - Vp)  # over Vb * Vbp
    # each ratio of doubled ints is the rational of the spin form, rounded once
    return front / (Vb * Vbp), mixed_half / mixed_int, area / 65536


def _route(s: SpinSextuple, k: int, geo: TetGeometry | None, want: Parity | None = None) -> AsymptoticResult:
    """The one supersymmetric formula at the parity of k*s; KParityError unless it is want."""
    d, v, p, parity, geo = _scaled(s, k, "osp12", geo, want)
    split = _beta_split(d, v, p) if parity is Parity.BETA else None
    factors = _beta_factors(v, p, split) if split else None
    n, psi = _shift(parity, d, v, split, 24.0 * geo.volume)
    root = math.sqrt(48.0 * math.pi * k * geo.volume)
    if factors is None:
        amplitude = n / (root * math.sqrt(math.prod(v) / 16))
    else:
        front, ratio, area = factors
        amplitude = n * math.sqrt(front) * ratio ** 0.25 / (root * area ** 0.25)
    slot = split[-1] if split else None
    angle = 0.25 * math.pi + _phase(geo.lengths, k, geo.theta_ext, parity is Parity.GAMMA, slot) - psi
    if k * _jj(d) % 2:
        angle += math.pi
    return AsymptoticResult(amplitude, angle, amplitude * math.cos(angle), parity.value)


def _check_scaled(v, p, k: int, algebra) -> Parity:
    """The exact evaluator's admissibility check of k*s, from the unscaled sums."""
    return _check([k * x for x in v], [k * x for x in p], algebra)


def _scaled(s: SpinSextuple, k: int, algebra: str, geo: TetGeometry | None, want: Parity | None = None):
    """(d, v, p, parity, geo), in order: the doubled spins and sums of s, the parity of k*s
    (KParityError unless it is want), the geometry (a geo passed in is refused as
    tet_from_spins(s) refuses s, then with ValueError unless its lengths are those of s;
    its volume and angles are trusted); ValueError past the float domain.  Past the gate
    no formula can fail."""
    d = s.doubled()
    v, p = _sums(d)
    parity = _check_scaled(v, p, _scale_factor(k), algebra)
    if want not in (None, parity):
        raise KParityError(f"{want.value} formula does not apply at k={k}: k*s has {parity.value} parity")
    if geo is None:
        geo = tet_from_spins(s)
    else:  # refused as tet_from_spins refuses s; admissibility of k*s implies its faces
        _unflat_cm64(s, d)
        if geo.lengths != tuple([x / 2.0 for x in d]):  # exact below the float domain
            raise ValueError(f"geo has lengths {geo.lengths}, not the spins of {s}")
    if k * max(d) >= _DOMAIN:
        raise ValueError("k times the largest spin must be below 2**39 for the floating-point asymptotics")
    return d, v, p, parity, geo


def asym_standard(s: SpinSextuple, k: int, geo: TetGeometry | None = None) -> AsymptoticResult:
    """Large-k standard 6j: cos(pi/4 + phi_k) / sqrt(12 pi k^3 V).

    Raises the AdmissibilityError of the exact evaluator unless the rescaled
    sextuple k*s is SU(2)-admissible.
    """
    geo = _scaled(s, k, "su2", geo)[-1]
    amplitude = 1.0 / math.sqrt(12.0 * math.pi * k**3 * geo.volume)
    angle = 0.25 * math.pi + _phase(geo.lengths, k, geo.theta_ext)
    return AsymptoticResult(amplitude, angle, amplitude * math.cos(angle), STANDARD)


def asym_for_scaled(s: SpinSextuple, k: int, geo: TetGeometry | None = None) -> AsymptoticResult:
    """Route a supersymmetric sextuple to the formula matching the parity of k*s.

    Raises the AdmissibilityError of the exact evaluator unless the rescaled
    sextuple k*s is OSP(1|2)-admissible, before any geometry is built.
    """
    return _route(s, k, geo)


# no program path calls the per-parity entries; perfbench/tracer.py names them


def asym_alpha(s: SpinSextuple, k: int, geo: TetGeometry | None = None) -> AsymptoticResult:
    """Large-k alpha supersymmetric symbol (also the even-k limit of beta/gamma).

    N_alpha * cos(pi/4 + phi_k - psi_alpha) / (sqrt(48 pi k V) sqrt(prod v_i)).
    """
    return _route(s, k, geo, Parity.ALPHA)


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
    return _route(s, k, geo, Parity.GAMMA)


def asym_beta(s: SpinSextuple, k: int, geo: TetGeometry | None = None) -> AsymptoticResult:
    """Large odd-k beta supersymmetric symbol.

    Combines the area-dimension fourth root of prod (p_j - v_i) * prod v_i,
    the sqrt((p-v)(p-v') / (vbar vbar')) factor, a dimensionless fourth root
    over the six mixed quadrangle-triangle differences, and the shifted
    cosine with the beta phase (the jstar edge carries an extra half angle).
    """
    return _route(s, k, geo, Parity.BETA)
