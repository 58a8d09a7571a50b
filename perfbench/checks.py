"""Correctness checks of one workload's pass outputs, outside the timed region.

Each checker takes the inputs of the run and the JSON outputs of one pass
and returns a list of failure messages (empty when every check holds).
``check_pass`` verifies the first pass against the reference computations
of ``oracles`` and the properties the method must have; every later pass of
the same run must reproduce the first pass's outputs exactly, which the
program's determinism promises.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from fractions import Fraction

from perfbench import inputs, oracles

CSV_COLUMNS = ["k", "parity", "exact_mantissa", "exact_exp2", "exact_float",
               "asym", "abs_err", "amplitude", "angle"]
SLOPE_TARGET = {"su2": -1.5, "super": -0.5}
SLOPE_TOL = 0.15
# (k_min, tolerance) of | |asym| / |exact| - 1 | at envelope maxima, per parity
ENVELOPE = {"gamma": (101, 0.05), "beta": (151, 0.10)}
ASYM_GAP = 0.01  # |exact - asym| <= ASYM_GAP * amplitude at large k
MAX_SHOWN = 20


class RunChecker:
    """Checks every pass of one run: the first in full, the rest for equality."""

    def __init__(self, workload: str, items: list):
        self.workload = workload
        self.items = items
        self.first = None

    def add_pass(self, outputs: list) -> list[str]:
        if self.first is None:
            self.first = outputs
            return []
        if outputs != self.first:
            diff = sum(1 for a, b in zip(outputs, self.first) if a != b)
            return [f"pass outputs differ from the first pass in {diff} of {len(outputs)} items"]
        return []

    def check_first(self) -> list[str]:
        return check_pass(self.workload, self.items, self.first)


def check_pass(workload: str, items: list, outputs: list) -> list[str]:
    if len(outputs) != len(items):
        return [f"{len(outputs)} outputs for {len(items)} inputs"]
    failures = CHECKERS[workload](items, outputs)
    if len(failures) > MAX_SHOWN:
        failures = failures[:MAX_SHOWN] + [f"... {len(failures) - MAX_SHOWN} more"]
    return failures


# -- grid_small ---------------------------------------------------------------


def check_grid(items, outputs) -> list[str]:
    """Reference value per tetrahedral class, equal values across each class,
    and the SU(2) orthogonality sum on every row inside the inputs."""
    fails = []
    values = {}
    for (kind, d), out in zip(items, outputs):
        if out is not None:
            values[(kind, tuple(d))] = ((out[0], out[1]), (out[2], out[3]))
    classes = defaultdict(list)
    for kind, d in values:
        classes[(kind, inputs.class_key(d))].append(d)
    for (kind, key), members in classes.items():
        first = values[(kind, members[0])]
        for d in members[1:]:
            if values[(kind, d)] != first:
                fails.append(f"{kind} {d}: value differs from its tetrahedral image {members[0]}")
        if not oracles.same_value(*first, oracles.reference(kind, members[0])):
            fails.append(f"{kind} {members[0]}: {first} differs from the reference sum")
    fails += _check_orthogonality(values)
    return fails


def _value_sq(value) -> Fraction:
    (cn, cd), (rn, rd) = value
    return Fraction(cn * cn * rn, cd * cd * rd)


def _check_orthogonality(values) -> list[str]:
    """sum_J3 (2 J3 + 1)(2 j3 + 1) {j1 j2 j3; J1 J2 J3}^2 = 1 over every J3 the
    triads (J1 j2 J3) and (j1 J2 J3) allow, on rows whose terms are all inputs."""
    rows = defaultdict(list)
    for kind, d in values:
        if kind == "su2":
            rows[d[:5]].append(d[5])
    fails = []
    for (a, b, c, x, y), present in rows.items():
        lo = max(abs(x - b), abs(a - y))
        hi = min(x + b, a + y)
        wanted = [z for z in range(lo, hi + 1, 2) if (x + b + z) % 2 == 0 and (a + y + z) % 2 == 0]
        if not wanted or any(("su2", (a, b, c, x, y, z)) not in values for z in wanted):
            continue
        total = sum((z + 1) * (c + 1) * _value_sq(values[("su2", (a, b, c, x, y, z))])
                    for z in wanted)
        if total != 1:
            fails.append(f"orthogonality row {(a, b, c, x, y)}: sum {total} != 1")
    return fails


# -- large_k ------------------------------------------------------------------


def check_large_k(items, outputs) -> list[str]:
    """Reference exact value, correctly rounded ScaledFloat, and agreement
    with the parity's asymptotic formula within ASYM_GAP of its amplitude."""
    fails = []
    for (kind, d, k), out in zip(items, outputs):
        if out is None:
            continue
        name = f"{kind} {d} k={k}"
        scaled = tuple(k * x for x in d)
        coeff, rad = tuple(out["coeff"]), tuple(out["radicand"])
        if not oracles.same_value(coeff, rad, oracles.reference(kind, scaled)):
            fails.append(f"{name}: exact value differs from the reference sum")
        mantissa, exp2 = out["scaled"]
        if coeff[0] == 0 or oracles.scaled_float_error(mantissa, exp2, coeff, rad) > 1e-15:
            fails.append(f"{name}: ScaledFloat {mantissa}*2^{exp2} is not the exact value rounded")
        amp, angle, value, used = out["asym"]
        expected = "standard" if kind == "su2" else (inputs.parity(d) if k % 2 else "alpha")
        fails += _asym_form(name, out["asym"], expected)
        exact = math.ldexp(mantissa, exp2)
        if not abs(exact - value) <= ASYM_GAP * amp:
            fails.append(f"{name}: exact {exact:.6g} vs asymptotic {value:.6g}, "
                         f"gap {abs(exact - value) / amp:.2e} of the amplitude")
        if kind == "su2":
            want = 1.0 / math.sqrt(12.0 * math.pi * k**3 * oracles.volume(d))
            if not math.isclose(amp, want, rel_tol=1e-9):
                fails.append(f"{name}: standard amplitude {amp} != 1/sqrt(12 pi k^3 V) = {want}")
    return fails


def _asym_form(name, res, expected_parity) -> list[str]:
    amp, angle, value, used = res
    fails = []
    if used != expected_parity:
        fails.append(f"{name}: routed to {used}, expected {expected_parity}")
    if not amp > 0:
        fails.append(f"{name}: amplitude {amp} is not positive")
    if not abs(value - amp * math.cos(angle)) <= 1e-15 * abs(amp):
        fails.append(f"{name}: value {value} != amplitude * cos(angle)")
    return fails


# -- scan_cli -----------------------------------------------------------------


def check_scan(items, outputs) -> list[str]:
    """Exit codes, CSV shape and read-back, envelope slope and envelope ratio."""
    fails = []
    ks = inputs.scan_ks()
    for (kind, d), out in zip(items, outputs):
        name = f"scan {kind} {d}"
        if out["codes"] != [0, 0]:
            continue  # counted as failed operations
        if out["csv"] is None:
            fails.append(f"{name}: no readable CSV at the --out path")
            continue
        rows = list(csv.reader(io.StringIO(out["csv"])))
        if not rows or rows[0] != CSV_COLUMNS:
            fails.append(f"{name}: CSV header {rows[:1]}")
            continue
        rows = rows[1:]
        if [r[0] for r in rows] != [str(k) for k in ks]:
            fails.append(f"{name}: CSV has k column {[r[0] for r in rows][:5]}..., expected {len(ks)} rows")
            continue
        base = "su2" if kind == "su2" else inputs.parity(d)
        parities = {"su2" if kind == "su2" else (base if k % 2 else "alpha") for k in ks}
        if {r[1] for r in rows} != parities:
            fails.append(f"{name}: parity column {sorted({r[1] for r in rows})}, expected {sorted(parities)}")
        fails += _check_read_back(name, rows, out["read_back"])
        fails += _check_envelope(name, kind, base, rows, out["slope_out"])
    return fails


def _parse_row(r) -> list:
    return [int(r[0]), r[1], float(r[2]), int(r[3]), float(r[4]),
            float(r[5]), float(r[6]), float(r[7]), float(r[8])]


def _check_read_back(name, rows, read_back) -> list[str]:
    """The program's read_csv returns exactly the cells written; floats round-trip."""
    parsed = [_parse_row(r) for r in rows]
    if read_back != parsed:
        return [f"{name}: read_csv returns other values than the CSV holds"]
    for r, p in zip(rows, parsed):
        for cell, value in zip(r[2:], p[2:]):
            if isinstance(value, float) and repr(value) != cell:
                return [f"{name}: float cell {cell!r} does not round-trip"]
    return []


def _maxima(rows):
    """(k, |exact|, |asym|) at strict local maxima of |exact| along the grid."""
    mags = [(int(r[0]), abs(math.ldexp(float(r[2]), int(r[3]))), abs(float(r[5]))) for r in rows]
    return [mid for prev, mid, nxt in zip(mags, mags[1:], mags[2:])
            if mid[1] > prev[1] and mid[1] > nxt[1]]


def _fit_slope(peaks) -> float:
    xs = [math.log(k) for k, _, _ in peaks]
    ys = [math.log(e) for _, e, _ in peaks]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
            / sum((x - xbar) ** 2 for x in xs))


def _check_envelope(name, kind, base, rows, slope_out) -> list[str]:
    fails = []
    fields = dict(line.split(None, 1) for line in (slope_out or "").splitlines() if line.strip())
    try:
        slope = float(fields["slope"])
    except (KeyError, ValueError):
        return [f"{name}: no slope in the slope command's output {slope_out!r}"]
    target = SLOPE_TARGET[kind]
    if not abs(slope - target) <= SLOPE_TOL:
        fails.append(f"{name}: envelope slope {slope:.4f}, expected {target} +- {SLOPE_TOL}")
    peaks = _maxima(rows)
    if len(peaks) < 3:
        return fails + [f"{name}: {len(peaks)} envelope maxima"]
    own = _fit_slope(peaks)
    if not math.isclose(own, slope, rel_tol=1e-9):
        fails.append(f"{name}: slope {slope} differs from the fit over the CSV maxima {own}")
    if base in ENVELOPE:
        k_min, tol = ENVELOPE[base]
        late = [(k, e, a) for k, e, a in peaks if k >= k_min]
        worst = max((abs(a / e - 1.0) for k, e, a in late), default=math.inf)
        if not worst <= tol:
            fails.append(f"{name}: envelope ratio off by {worst:.3f} at k >= {k_min} (limit {tol})")
    return fails


# -- asym_grid ----------------------------------------------------------------


def check_asym(items, outputs) -> list[str]:
    """Volume and dihedral angles against the Gram-matrix computation, the
    discriminant identity, the cosine form and the parity routing."""
    fails = []
    for (d, is_alpha), out in zip(items, outputs):
        if out is None:
            continue
        name = f"asym {d}"
        vol = oracles.volume(d)
        theta = oracles.exterior_dihedrals(d)
        if not math.isclose(out["volume"], vol, rel_tol=1e-12):
            fails.append(f"{name}: volume {out['volume']} != {vol}")
        worst = max(abs(a - b) for a, b in zip(out["theta_ext"], theta))
        if not worst <= 1e-9:
            fails.append(f"{name}: exterior dihedral angles off by {worst:.2e}")
        alg, geo = out["disc"]
        vol576 = inputs.gram512(d) / 32
        if not (abs(alg - geo) <= 1e-9 * abs(geo) and math.isclose(geo, vol576, rel_tol=1e-12)):
            fails.append(f"{name}: 4AC - B^2 = {alg}, 576 V^2 = {geo}, expected {vol576}")
        base = inputs.parity(d)
        fails += _asym_form(f"{name} k={inputs.ASYM_K_ODD}", out["odd"], base)
        fails += _asym_form(f"{name} k={inputs.ASYM_K_EVEN}", out["even"], "alpha")
        if is_alpha != (base == "alpha") or (out["standard"] is None) == is_alpha:
            fails.append(f"{name}: standard formula evaluated on the wrong parity")
        elif is_alpha:
            k = inputs.ASYM_K_ODD
            fails += _asym_form(f"{name} standard", out["standard"], "standard")
            amp, angle = out["standard"][:2]
            want_amp = 1.0 / math.sqrt(12.0 * math.pi * k**3 * vol)
            want_angle = math.pi / 4 + sum((k * x / 2 + 0.5) * t for x, t in zip(d, theta))
            if not (math.isclose(amp, want_amp, rel_tol=1e-9) and abs(angle - want_angle) <= 1e-7):
                fails.append(f"{name}: standard ({amp}, {angle}) != ({want_amp}, {want_angle})")
    return fails


CHECKERS = {
    "grid_small": check_grid,
    "large_k": check_large_k,
    "scan_cli": check_scan,
    "asym_grid": check_asym,
}
