import importlib
import io
import math
import re
from fractions import Fraction

import pytest

from sixj import (
    ExactSymbol,
    InsufficientExtremaError,
    IntegralityViolation,
    ScaledFloat,
    ScanRecord,
    SpinSextuple,
    envelope_slope,
    read_csv,
    scan,
    sixj_exact,
    sixj_super_exact,
    write_csv,
    write_json,
)
from sixj.exact import exact_to_scaled
from sixj.scan import CSV_COLUMNS, MAX_SCAN_POINTS, k_range, local_maxima
from sixj.symbols import _brackets, _check_cost
from sixj.triangles import _sums

SCAN_MODULE = importlib.import_module("sixj.scan")  # the package binds sixj.scan to the function

HALF = Fraction(1, 2)
ALL_ONES = SpinSextuple.of(1, 1, 1, 1, 1, 1)
ALL_HALVES = SpinSextuple.of(*([HALF] * 6))


def estimated_cost(s: SpinSextuple) -> int:
    """The kernel's cost estimate on s, as _check_cost takes it for one evaluation."""
    w, m = _brackets(*_sums(s.doubled()))
    return _check_cost(w, m, max(w), min(m))


def csv_text(records: list[ScanRecord]) -> str:
    buf = io.StringIO()
    write_csv(records, buf)
    return buf.getvalue()


def synthetic_records(power: float, omega: float = 0.9, ks=range(5, 120)) -> list[ScanRecord]:
    out = []
    for k in ks:
        value = k**power * math.cos(omega * k)
        out.append(
            ScanRecord(
                k=k,
                parity="su2",
                exact=exact_to_scaled(ExactSymbol(Fraction(value), Fraction(1))),
                asym=value,
                abs_err=0.0,
                amplitude=k**power,
                angle=omega * k,
            )
        )
    return out


class TestScan:
    def test_su2_single_k_matches_evaluator(self):
        records = scan(ALL_ONES, "su2", [2])
        assert len(records) == 1
        rec = records[0]
        assert rec.k == 2 and rec.parity == "su2"
        assert rec.exact.to_float() == float(sixj_exact(ALL_ONES.scaled(2)))
        assert rec.abs_err == abs(rec.exact.to_float() - rec.asym)

    def test_super_even_k_routes_alpha(self):
        records = scan(ALL_HALVES, "super", [2])
        assert records[0].parity == "alpha"
        assert records[0].exact.to_float() == float(sixj_super_exact(ALL_HALVES.scaled(2)))

    def test_super_odd_k_keeps_parity(self):
        records = scan(ALL_HALVES, "super", [3])
        assert records[0].parity == "gamma"

    def test_empty_k_list(self):
        assert scan(ALL_ONES, "su2", []) == []

    def test_rejects_unsorted_or_nonpositive(self):
        with pytest.raises(ValueError):
            scan(ALL_ONES, "su2", [3, 2])
        with pytest.raises(ValueError, match="^scale factor must be a positive integer, got 0$"):
            scan(ALL_ONES, "su2", [0, 1])
        with pytest.raises(ValueError):
            scan(ALL_ONES, "bogus", [1])

    @pytest.mark.parametrize("kind", ["su2", "super"])
    @pytest.mark.parametrize("ks", [[1.0], [1.0, 2.0], [1, 3.0], [0.5], [1, -1.0], ["3"], [None]])
    def test_k_must_be_an_int(self, kind, ks):
        # before any sums: a float at a later k too, not a crash deep in the kernel
        name = type(ks[-1]).__name__
        with pytest.raises(TypeError, match=f"^scale factor must be an int, got {name}$"):
            scan(ALL_ONES, kind, ks)

    def test_errors_carry_offending_k(self):
        with pytest.raises(IntegralityViolation, match="k=7"):
            scan(ALL_HALVES, "su2", [7])

    def test_admissibility_of_a_later_k_before_the_geometry(self):
        # non-Euclidean, and k = 3 has half-integer triangle sums: asym's error at that k
        with pytest.raises(IntegralityViolation, match=r"^k=3: su2 requires integer triangle sums, "):
            scan(SpinSextuple.parse("1 1 3/2 1 1 3/2".split()), "su2", [2, 3])

    def test_nothing_is_evaluated_before_every_k_is_checked(self, monkeypatch):
        calls = []

        def counted(evaluate):
            return lambda s: calls.append(s) or evaluate(s)

        monkeypatch.setattr(SCAN_MODULE, "sixj_exact", counted(sixj_exact))
        with pytest.raises(IntegralityViolation, match="^k=3: "):
            scan(ALL_HALVES, "su2", [2, 3])  # k = 2 passes every check
        assert calls == []
        assert len(scan(ALL_HALVES, "su2", [2, 4])) == len(calls) == 2  # the patch counts

    def test_k_range(self):
        assert k_range(1, 9, 2) == [1, 3, 5, 7, 9]
        with pytest.raises(ValueError):
            k_range(1, 9, 0)

    def test_k_range_point_bound(self, monkeypatch):
        assert k_range(7, 7 + 2 * (MAX_SCAN_POINTS - 1), 2)[-1] == 7 + 2 * (MAX_SCAN_POINTS - 1)
        assert len(k_range(1, MAX_SCAN_POINTS)) == MAX_SCAN_POINTS
        for args in [(1, MAX_SCAN_POINTS + 1), (7, 7 + 2 * MAX_SCAN_POINTS, 2), (1, 10**40, 10**20)]:
            with pytest.raises(ValueError, match="at most 100000 k values"):
                k_range(*args)
        monkeypatch.setattr(SCAN_MODULE, "MAX_SCAN_POINTS", 3)
        assert k_range(1, 3) == [1, 2, 3] and k_range(4, 1) == []
        with pytest.raises(ValueError):
            k_range(1, 4)

    def test_largest_k_checked_before_any_evaluation(self, monkeypatch):
        def evaluated(s):
            raise AssertionError("evaluated")

        monkeypatch.setattr(SCAN_MODULE, "sixj_exact", evaluated)
        with pytest.raises(ValueError, match="^spins are too large for exact evaluation$"):
            scan(ALL_ONES, "su2", [1, 2, 10**6])
        monkeypatch.setattr("sixj.symbols.MAX_EXACT_COST", 10**6)
        with pytest.raises(ValueError, match="^spins are too large for exact evaluation$"):
            scan(ALL_ONES, "su2", [1, 2, 101])

    @pytest.mark.parametrize("base, kind", [(ALL_ONES, "su2"), (ALL_HALVES, "super")])
    def test_summed_cost_checked_before_any_evaluation(self, monkeypatch, base, kind):
        # every k alone is under the bound, the whole scan is not
        ks = list(range(1, 21))
        total = sum(estimated_cost(base.scaled(k)) for k in ks)
        assert 2 * estimated_cost(base.scaled(ks[-1])) < total
        monkeypatch.setattr("sixj.symbols.MAX_EXACT_COST", total - 1)
        with monkeypatch.context() as patched:
            patched.setattr(SCAN_MODULE, "sixj_exact", None)  # a call would raise TypeError
            patched.setattr(SCAN_MODULE, "sixj_super_exact", None)
            with pytest.raises(ValueError, match="^spins are too large for exact evaluation$"):
                scan(base, kind, ks)
        monkeypatch.setattr("sixj.symbols.MAX_EXACT_COST", total)
        assert [r.k for r in scan(base, kind, ks)] == ks


class TestEnvelopeSlope:
    def test_recovers_minus_three_halves(self):
        fit = envelope_slope(synthetic_records(-1.5))
        assert fit.slope == pytest.approx(-1.5, abs=0.02)
        assert fit.n_points >= 3
        assert fit.r_squared > 0.999

    def test_recovers_minus_half(self):
        fit = envelope_slope(synthetic_records(-0.5))
        assert fit.slope == pytest.approx(-0.5, abs=0.02)

    def test_constant_zero_records_raise(self):
        records = [
            ScanRecord(k, "su2", ScaledFloat.zero(), 0.0, 0.0, 0.0, 0.0) for k in range(1, 30)
        ]
        with pytest.raises(InsufficientExtremaError):
            envelope_slope(records)

    def test_local_maxima_strictness(self):
        records = synthetic_records(-1.0, omega=0.5, ks=range(1, 40))
        for rec in local_maxima(records):
            i = rec.k - 1
            assert abs(records[i - 1].exact.to_float()) < abs(rec.exact.to_float())
            assert abs(records[i + 1].exact.to_float()) < abs(rec.exact.to_float())


class TestSerialisation:
    def test_csv_roundtrip_bit_identical_slope(self):
        records = scan(ALL_ONES, "su2", list(range(5, 60)))
        text = csv_text(records)
        parsed = read_csv(io.StringIO(text))
        f1 = envelope_slope(records)
        f2 = envelope_slope(parsed)
        assert (f1.slope, f1.intercept, f1.r_squared, f1.n_points) == (
            f2.slope,
            f2.intercept,
            f2.r_squared,
            f2.n_points,
        )

    def test_csv_roundtrip_preserves_exact(self):
        records = scan(ALL_HALVES, "super", [1, 2, 3, 4, 5])
        parsed = read_csv(io.StringIO(csv_text(records)))
        for a, b in zip(records, parsed):
            assert a.exact == b.exact
            assert a.asym == b.asym and a.abs_err == b.abs_err
            assert a.amplitude == b.amplitude and a.angle == b.angle
            assert a.parity == b.parity

    def test_float_cells_are_their_repr(self):
        # every special float in every float field, and an exact_float that saturates or underflows
        specials = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 0.1]
        exps = [0, 1100, -1080, 3, -3, 52, 1]
        records = [ScanRecord(k, "beta", ScaledFloat(-1.5, exps[k - 1]), *(specials[(k + i) % 7] for i in range(4)))
                   for k in range(1, 8)]
        text = csv_text(records)
        for line, rec in zip(text.splitlines()[1:], records, strict=True):
            floats = [rec.exact.to_float(), rec.asym, rec.abs_err, rec.amplitude, rec.angle]
            assert line.split(",") == [str(rec.k), "beta", "-1.5", str(rec.exact.exp2), *map(repr, floats)]

        def same(a: float, b: float) -> bool:
            return math.isnan(a) and math.isnan(b) or (a, math.copysign(1.0, a)) == (b, math.copysign(1.0, b))

        for a, b in zip(records, read_csv(io.StringIO(text)), strict=True):
            assert (a.k, a.parity, a.exact) == (b.k, b.parity, b.exact)
            for name in ("asym", "abs_err", "amplitude", "angle"):
                assert same(getattr(a, name), getattr(b, name)), (a.k, name)

    def test_scan_deterministic_output(self):
        a = csv_text(scan(ALL_HALVES, "super", [1, 3, 5, 7]))
        b = csv_text(scan(ALL_HALVES, "super", [1, 3, 5, 7]))
        assert a == b

    def test_header_and_columns(self):
        text = csv_text(scan(ALL_ONES, "su2", [2, 3]))
        header = text.splitlines()[0]
        assert header == "k,parity,exact_mantissa,exact_exp2,exact_float,asym,abs_err,amplitude,angle"
        assert len(text.splitlines()) == 3

    def test_json_mirror_fields(self):
        import json

        records = scan(ALL_ONES, "su2", [2, 3])
        buf = io.StringIO()
        write_json(records, buf)
        data = json.loads(buf.getvalue())
        assert len(data) == 2
        assert set(data[0]) == {
            "k",
            "parity",
            "exact_mantissa",
            "exact_exp2",
            "exact_float",
            "asym",
            "abs_err",
            "amplitude",
            "angle",
        }
        assert data[0]["k"] == 2

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError):
            read_csv(io.StringIO("k,parity\n1,su2\n"))

    @pytest.mark.parametrize("extra, named", [("k", "['k']"), ("k,angle,note,note", "['angle', 'k', 'note']")])
    def test_duplicate_column_rejected(self, extra, named):
        # a second k was read silently: dict(zip(header, cells)) keeps the last
        header = ",".join([*CSV_COLUMNS, extra])
        with pytest.raises(ValueError, match=f"^{re.escape(f'scan CSV line 1: duplicate columns {named}')}$"):
            read_csv(io.StringIO(header + "\n"))

    def test_parity_at_k_matches_classification(self):
        from sixj.triangles import rescale

        records = scan(ALL_HALVES, "super", [1, 2, 3, 4, 5, 6])
        for rec in records:
            _, parity = rescale(ALL_HALVES, rec.k)
            assert rec.parity == parity.value


def peaked_csv(ks, exp2s=None) -> str:
    """A scan CSV whose |exact| alternates low/high, so every other row is a local maximum."""
    exp2s = exp2s or [0] * len(ks)
    rows = [",".join(("k", "parity", "exact_mantissa", "exact_exp2", "exact_float",
                      "asym", "abs_err", "amplitude", "angle"))]
    for i, (k, e) in enumerate(zip(ks, exp2s)):
        m = 1.5 if i % 2 else 1.0
        rows.append(f"{k},su2,{m!r},{e},{m!r},0.0,0.0,0.0,0.0")
    return "\n".join(rows) + "\n"


class TestMalformedCsv:
    """read_csv turns a CSV that no scan writes into a ValueError naming the line."""

    def lines(self):
        return csv_text(synthetic_records(-1.5, ks=range(5, 12))).splitlines()

    def test_short_row(self):
        lines = self.lines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        with pytest.raises(ValueError, match="line 4: .* cells, the header has"):
            read_csv(io.StringIO("\n".join(lines)))

    def test_long_row(self):
        lines = self.lines()
        lines[3] += ",0.5"
        with pytest.raises(ValueError, match="line 4: .* cells, the header has"):
            read_csv(io.StringIO("\n".join(lines)))

    def test_oversized_cell(self):
        lines = self.lines()
        lines[3] = lines[3].replace("su2", "x" * 131073)
        with pytest.raises(ValueError, match="line 4"):
            read_csv(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize("ks", [[5, 5, 6], [5, 7, 6], [0, 1, 2], [-3, 1, 2]])
    def test_k_not_positive_and_ascending(self, ks):
        with pytest.raises(ValueError, match="strictly ascending"):
            read_csv(io.StringIO(peaked_csv(ks)))

    def test_repeated_k_never_reaches_the_fit(self):
        # seven rows at one k hold three maxima at one log k
        with pytest.raises(ValueError, match="line 3: k values"):
            envelope_slope(read_csv(io.StringIO(peaked_csv([5] * 7))))

    @pytest.mark.parametrize("e", [2**53 + 1, -(2**53) - 1, 10**400])
    def test_exp2_out_of_range(self, e):
        with pytest.raises(ValueError, match="exact_exp2"):
            read_csv(io.StringIO(peaked_csv([1, 2, 3], [0, e, 0])))

    def test_exp2_at_the_bound_is_read(self):
        records = read_csv(io.StringIO(peaked_csv([1, 2, 3], [-(2**53), 2**53, 0])))
        assert [r.exact.exp2 for r in records] == [-(2**53), 2**53, 0]


class TestEnvelopeSlopeBoundary:
    def test_maxima_at_one_float_log_k(self):
        # distinct k whose logs round to one float: no slope can be fitted
        ks = [10**20 + i for i in range(7)]
        assert len({math.log(k) for k in ks}) == 1
        with pytest.raises(InsufficientExtremaError, match="distinct log k"):
            envelope_slope(read_csv(io.StringIO(peaked_csv(ks))))
