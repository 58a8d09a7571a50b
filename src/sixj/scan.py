"""k-scan harness: exact vs asymptotic values, envelopes, decay-slope fits.

A scan rescales a sextuple by each k in an ascending list, evaluates the
symbol exactly (carried as a ScaledFloat so magnitudes never overflow) and
the matching asymptotic formula, and records both with error measures.
Envelope slopes are least-squares fits of log|exact| against log k over the
strict local maxima of |exact| on the scanned grid.
"""

from __future__ import annotations

import csv
import math

from .asymptotics import _check_scaled, _running_sum, asym_for_scaled, asym_standard
from .errors import AdmissibilityError, InsufficientExtremaError
from .exact import ScaledFloat
from .geometry import tet_from_spins
from .record import Record
from .symbols import _brackets, _check_cost, sixj_exact, sixj_super_exact
from .triangles import SpinSextuple, _scale_factor, _sums

CSV_COLUMNS = (
    "k",
    "parity",
    "exact_mantissa",
    "exact_exp2",
    "exact_float",
    "asym",
    "abs_err",
    "amplitude",
    "angle",
)
MAX_SCAN_POINTS = 10**5  # a row takes 0.4 ms or more, so this many take 40 s or more


class ScanRecord(Record):
    """One row of a k-scan."""

    __slots__ = ("k", "parity", "exact", "asym", "abs_err", "amplitude", "angle")
    k: int
    parity: str
    exact: ScaledFloat
    asym: float
    abs_err: float
    amplitude: float
    angle: float

    def row(self) -> dict:
        return dict(zip(CSV_COLUMNS, (self.k, self.parity, self.exact.mantissa, self.exact.exp2,
                                      self.exact.to_float(), self.asym, self.abs_err,
                                      self.amplitude, self.angle)))


class SlopeFit(Record):
    """Least-squares fit of log|envelope| against log k."""

    __slots__ = ("slope", "intercept", "r_squared", "n_points")
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def scan(s: SpinSextuple, kind: str, k_list: list[int]) -> list[ScanRecord]:
    """Evaluate the exact and asymptotic symbol at every k in ascending order.

    kind "su2" uses the standard symbol and its k**-1.5 asymptotic; "super"
    evaluates the supersymmetric symbol and routes each k to the formula
    matching the parity of the rescaled sextuple (even k always alpha).
    """
    if kind not in ("su2", "super"):
        raise ValueError(f"kind must be 'su2' or 'super', got {kind!r}")
    ks = list(map(_scale_factor, k_list))
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("scan k values must be strictly ascending")
    if not ks:
        return []
    v, p = _sums(s.doubled())
    # refused before any evaluation, in eval's order: admissibility at every k, cost, geometry
    for k in ks:
        try:
            _check_scaled(v, p, k, "su2" if kind == "su2" else "osp12")
        except AdmissibilityError as exc:
            raise type(exc)(f"k={k}: {exc}") from exc
    spent = 0  # the kernel's cost, summed over every k
    for k in ks:
        w, m = _brackets(v, p, k)
        spent = _check_cost(w, m, max(w), min(m), spent)
    geo = tet_from_spins(s)
    exact_of, asym_of = (sixj_exact, asym_standard) if kind == "su2" else (sixj_super_exact, asym_for_scaled)
    records = []
    for k in ks:
        exact = exact_of(s.scaled(k)).to_scaled()
        res = asym_of(s, k, geo)
        records.append(ScanRecord(k, "su2" if kind == "su2" else res.parity_used, exact, res.value,
                                  abs(exact.to_float() - res.value), res.amplitude, res.angle))
    return records


def k_range(k_from: int, k_to: int, k_step: int = 1) -> list[int]:
    """Ascending inclusive k grid of at most MAX_SCAN_POINTS values."""
    if k_step < 1:
        raise ValueError("k step must be a positive integer")
    if (k_to - k_from) // k_step >= MAX_SCAN_POINTS:
        raise ValueError(f"a scan takes at most {MAX_SCAN_POINTS} k values")
    return list(range(k_from, k_to + 1, k_step))


def local_maxima(records: list[ScanRecord]) -> list[ScanRecord]:
    """Records whose |exact| strictly exceeds both neighbours on the grid."""
    out = []
    for prev, here, nxt in zip(records, records[1:], records[2:]):
        a, b, c = prev.exact.abs_log2(), here.exact.abs_log2(), nxt.exact.abs_log2()
        if b > a and b > c:
            out.append(here)
    return out


def envelope_slope(records: list[ScanRecord]) -> SlopeFit:
    """Fit log|exact| vs log k through the local maxima of |exact|.

    Needs at least three maxima, and not all at one float log k; otherwise
    raises InsufficientExtremaError.
    """
    peaks = local_maxima(records)
    if len(peaks) < 3:
        raise InsufficientExtremaError(
            f"envelope fit needs >= 3 local maxima, found {len(peaks)}"
        )
    xs = [math.log(r.k) for r in peaks]
    if min(xs) == max(xs):
        raise InsufficientExtremaError("envelope fit needs local maxima at distinct log k")
    ys = [r.exact.abs_ln() for r in peaks]
    n = len(xs)
    xbar = _running_sum(xs) / n
    ybar = _running_sum(ys) / n
    sxx = _running_sum((x - xbar) ** 2 for x in xs)
    sxy = _running_sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ss_res = _running_sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = _running_sum((y - ybar) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope, intercept, r2, n)


def write_csv(records: list[ScanRecord], fh) -> None:
    """Emit the fixed-column CSV; csv writes a float as its shortest round-trip repr."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(r.row().values() for r in records)


def read_csv(fh) -> list[ScanRecord]:
    """Parse a scan CSV back into records (exact values from mantissa/exp2).

    Raises ValueError, naming the line, on malformed CSV, on missing or
    duplicate columns, on a row whose cell count differs from the header's, on a cell
    that does not parse, on an exact_exp2 past 2**53 and on k values that
    are not positive and strictly ascending, the rule scan enforces.
    """
    reader = csv.reader(fh)
    records: list[ScanRecord] = []
    try:
        header = next(reader, [])
        missing = set(CSV_COLUMNS) - set(header)
        if missing:
            raise ValueError(f"missing columns {sorted(missing)}")
        names = sorted(header)
        twice = sorted({a for a, b in zip(names, names[1:]) if a == b})
        if twice:
            raise ValueError(f"duplicate columns {twice}")
        for cells in reader:
            if cells:  # [] is a blank line
                records.append(_record(header, cells, records[-1].k if records else 0))
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"scan CSV line {reader.line_num}: {exc}") from None
    return records


def _record(header: list[str], cells: list[str], last_k: int) -> ScanRecord:
    """The record of one CSV row, whose k must exceed last_k."""
    if len(cells) != len(header):
        raise ValueError(f"{len(cells)} cells, the header has {len(header)}")
    row = dict(zip(header, cells))
    k, parity, mantissa, exp2, _, *floats = (row[c] for c in CSV_COLUMNS)  # exact_float is derived
    k, exp2 = int(k), int(exp2)
    if k <= last_k:
        raise ValueError("k values must be positive and strictly ascending")
    if abs(exp2) > 2**53:  # past it, abs_log2 is not exact
        raise ValueError(f"exact_exp2 {exp2} is out of range")
    floats = list(map(float, floats))
    return ScanRecord(k, parity, ScaledFloat(float(mantissa), exp2), *floats)


def write_json(records: list[ScanRecord], fh) -> None:
    """JSON mirror of the CSV: an array of objects with identical field names."""
    import json  # here, its only user, so that importing the package does not load it
    json.dump([r.row() for r in records], fh, indent=2)
    fh.write("\n")

