import contextlib
import importlib
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixj.cli import cli_main

# the interpreter's int-to-text digit limit; none before 3.10.7
digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_su2_regular(self, capsys):
        code, out, _ = run(capsys, "eval", "--kind", "su2", "1", "1", "1", "1", "1", "1")
        assert code == 0
        assert "1/6" in out

    def test_super_all_halves(self, capsys):
        code, out, _ = run(capsys, "eval", "--kind", "super", "1/2", "1/2", "1/2", "1/2", "1/2", "1/2")
        assert code == 0
        assert "-3/2" in out

    def test_admissibility_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--kind", "su2", "0.5", "0.5", "0.5", "0.5", "0.5", "0.5")
        assert code == 3
        assert "error" in err

    def test_triangle_violation_exit_code(self, capsys):
        code, _, _ = run(capsys, "eval", "4", "1", "1", "1", "1", "4")
        assert code == 3

    def test_bad_spin_text_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "0.25", "1", "1", "1", "1", "1")
        assert code == 2


class TestClassify:
    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "classify", "1/2", "1/2", "1/2", "1/2", "1/2", "1/2")
        assert code == 0
        assert "gamma" in out

    def test_beta_shows_triangle_data(self, capsys):
        code, out, _ = run(capsys, "classify", "1/2", "1", "1", "1", "1", "1/2")
        assert code == 0
        assert "beta" in out
        assert "5/2" in out


class TestGeometry:
    def test_regular(self, capsys):
        code, out, _ = run(capsys, "geometry", "1", "1", "1", "1", "1", "1")
        assert code == 0
        assert "0.117851" in out

    def test_non_euclidean_exit_code(self, capsys):
        code, _, err = run(capsys, "geometry", "1/2", "1", "1", "1", "1", "1/2")
        assert code == 4
        assert "error" in err


class TestAsym:
    def test_super_gamma(self, capsys):
        code, out, _ = run(
            capsys, "asym", "--kind", "super", "--k", "21", "1/2", "1/2", "1/2", "1/2", "1/2", "1/2"
        )
        assert code == 0
        assert "gamma" in out and "amplitude" in out

    def test_su2_standard(self, capsys):
        code, out, _ = run(capsys, "asym", "--kind", "su2", "--k", "50", "1", "1", "1", "1", "1", "1")
        assert code == 0
        assert "standard" in out

    def test_missing_k_is_usage(self, capsys):
        code, _, _ = run(capsys, "asym", "--kind", "super", "1", "1", "1", "1", "1", "1")
        assert code == 2


class TestScanCommand:
    def test_row_count(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--kind", "super", "--k-from", "1", "--k-to", "9", "--k-step", "2",
            "1/2", "1/2", "1/2", "1/2", "1/2", "1/2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + 5 rows
        assert lines[0].startswith("k,parity,")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--kind", "su2", "--k-from", "2", "--k-to", "4",
            "--format", "json",
            "1", "1", "1", "1", "1", "1",
        )
        assert code == 0
        data = json.loads(out)
        assert [row["k"] for row in data] == [2, 3, 4]

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys,
            "scan", "--kind", "su2", "--k", "2", "--out", str(out_file),
            "1", "1", "1", "1", "1", "1",
        )
        assert code == 0
        assert out == ""
        assert out_file.read_text().startswith("k,parity,")

    def test_conflicting_k_flags(self, capsys):
        code, _, _ = run(
            capsys,
            "scan", "--k", "2", "--k-from", "1", "--k-to", "3",
            "1", "1", "1", "1", "1", "1",
        )
        assert code == 2


class TestSlopeCommand:
    def test_fit_from_csv(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys,
            "scan", "--kind", "su2", "--k-from", "10", "--k-to", "80",
            "--out", str(out_file),
            "1", "1", "1", "1", "1", "1",
        )
        assert code == 0
        code, out, _ = run(capsys, "slope", str(out_file))
        assert code == 0
        slope = float(out.splitlines()[0].split()[1])
        assert -1.8 < slope < -1.2

    def test_insufficient_extrema(self, tmp_path, capsys):
        out_file = tmp_path / "tiny.csv"
        run(capsys, "scan", "--kind", "su2", "--k-from", "2", "--k-to", "4",
            "--out", str(out_file), "1", "1", "1", "1", "1", "1")
        code, _, err = run(capsys, "slope", str(out_file))
        assert code == 2
        assert "maxima" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "slope", "/nonexistent/file.csv")
        assert code == 2

    @staticmethod
    def _short_row(rows):
        rows[3] = rows[3][:-1]

    @staticmethod
    def _long_row(rows):
        rows[3].append("0.5")

    @staticmethod
    def _repeated_k(rows):
        for row in rows[1:]:
            row[0] = "5"

    @staticmethod
    def _oversized_cell(rows):
        rows[3][1] = "x" * 131073

    @staticmethod
    def _huge_exp2(rows):
        # the maxima's log|exact| differ by ~1e200, whose square has no float value
        for i, row in enumerate(rows[1:]):
            row[3] = str(i * 10**200 if i % 2 else 0)

    @staticmethod
    def _duplicate_column(rows):
        for row in rows:  # k,k,parity,...: the second k was read silently
            row.insert(0, row[0])

    @staticmethod
    def _one_float_log_k(rows):
        for i, row in enumerate(rows[1:]):
            row[0] = str(10**20 + i)

    @pytest.mark.parametrize("mutate", [
        "_short_row", "_long_row", "_repeated_k", "_oversized_cell", "_huge_exp2", "_one_float_log_k",
        "_duplicate_column",
    ])
    def test_malformed_csv_is_usage_error(self, tmp_path, capsys, mutate):
        path = tmp_path / "scan.csv"
        run(capsys, "scan", "--kind", "su2", "--k-from", "5", "--k-to", "40",
            "--out", str(path), "1", "1", "1", "1", "1", "1")
        rows = [line.split(",") for line in path.read_text().splitlines()]
        getattr(self, mutate)(rows)
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        code, out, err = run(capsys, "slope", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_wrong_spin_count(self, capsys):
        assert run(capsys, "eval", "1", "1")[0] == 2


BETA_N = 10**20 + 1


class TestInputBoundary:
    # face (j1, j2, j3) = (1/2, 1/2, 3/2) is not a triangle, although the
    # Cayley-Menger determinant of the six lengths is positive
    BAD_FACE = ("1/2", "1/2", "3/2", "1/2", "5/2", "3/2")
    HALVES = ("1/2",) * 6

    def test_geometry_bad_face_exit_code(self, capsys):
        code, out, err = run(capsys, "geometry", *self.BAD_FACE)
        assert code == 4
        assert out == ""
        assert "triangle inequality" in err and "Traceback" not in err

    @pytest.mark.parametrize("k", ["1", "2", "3"])
    def test_asym_super_bad_face_exit_code(self, capsys, k):
        # the sextuple breaks a triangular inequality, so OSP(1|2)
        # admissibility fails before the geometry is built, as in eval
        code, out, err = run(capsys, "asym", "--kind", "super", "--k", k, *self.BAD_FACE)
        assert code == 3
        assert out == ""
        assert "triangular inequality fails" in err

    @pytest.mark.parametrize("command", [
        ("asym", "--kind", "super", "--k", "3"),
        ("scan", "--kind", "super", "--k", "3"),
        ("scan", "--kind", "su2", "--k", "3"),
    ])
    def test_exit_code_matches_eval_on_bad_face(self, capsys, command):
        scaled = [str(3 * Fraction(x)) for x in self.BAD_FACE]
        eval_code, _, eval_err = run(capsys, "eval", "--kind", command[2], *scaled)
        code, out, err = run(capsys, *command, *self.BAD_FACE)
        assert code == eval_code == 3
        assert out == ""
        assert eval_err.removeprefix("error: ") in err

    def test_scan_su2_half_perimeter_flat_is_inadmissible(self, capsys):
        # half-integer perimeters at k = 1 and a flat tetrahedron: eval's error wins
        code, _, err = run(
            capsys, "scan", "--kind", "su2", "--k", "1", "1/2", "1", "1", "1", "1", "1/2"
        )
        assert code == 3
        assert "k=1: su2 requires integer triangle sums" in err

    @pytest.mark.parametrize("spins, k_to, message", [
        # non-Euclidean: the geometry error of the whole scan came first
        (("1", "1", "3/2", "1", "1", "3/2"), "3", "('21/2', '21/2', '21/2', '21/2')"),
        # 100000 k over the summed cost bound: the cost error came first
        (HALVES, "100001", "('9/2', '9/2', '9/2', '9/2')"),
    ], ids=["non-euclidean", "over-the-cost-bound"])
    def test_scan_refuses_a_later_k_as_asym_does(self, capsys, spins, k_to, message):
        code, out, err = run(capsys, "asym", "--kind", "su2", "--k", "3", *spins)
        assert (code, out) == (3, "")
        code, out, scan_err = run(capsys, "scan", "--kind", "su2", "--k-from", "2", "--k-to", k_to, *spins)
        expected = f"error: k=3: su2 requires integer triangle sums, got v={message}\n"
        assert (code, out, scan_err) == (3, "", expected)
        assert scan_err == err.replace("error: ", "error: k=3: ")

    def test_asym_su2_bad_face_is_inadmissible(self, capsys):
        code, out, _ = run(capsys, "asym", "--kind", "su2", "--k", "2", *self.BAD_FACE)
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("kind, k, spins", [
        pytest.param("su2", 10**103, ("1",) * 6, id="su2-1e103"),  # k**3 past the float range
        pytest.param("super", 10**400 + 1, HALVES, id="super-1e400+1"),  # k past the float range
        pytest.param("super", 10**306, ("100",) * 6, id="super-1e306"),  # the cosine argument
        # 48 pi k V would overflow and the amplitude read 0.0
        pytest.param("super", 10**303, ("100",) * 6, id="super-1e303"),
        pytest.param("su2", 10**100, (str(10**40),) * 6, id="su2-1e100-spins-1e40"),
        # finite angles with no digit left modulo 2 pi, whose cosine is rounding noise
        pytest.param("su2", 10**102, ("1",) * 6, id="su2-1e102"),
        pytest.param("super", 10**300 + 1, HALVES, id="super-1e300+1"),
        pytest.param("super", 3, (str(10**50),) * 6, id="super-3-spins-1e50"),
    ])
    def test_asym_huge_k_is_usage_error(self, capsys, kind, k, spins):
        code, out, err = run(capsys, "asym", "--kind", kind, "--k", str(k), *spins)
        assert (code, out) == (2, "")
        assert err == "error: k times the largest spin must be below 2**39 for the floating-point asymptotics\n"

    @pytest.mark.parametrize("kind, spins, parity", [
        ("su2", ("1",) * 6, "standard"),
        ("super", ("1",) * 6, "alpha"),
        ("super", HALVES, "gamma"),
        ("super", ("1/2", "1", "1", "1", "1", "1"), "beta"),
    ], ids=["su2", "alpha", "gamma", "beta"])
    def test_asym_at_the_domain_bound(self, capsys, kind, spins, parity):
        # the largest k with k * max(2j) < 2**40 is odd for these spins; the next k is refused
        k = (2**40 - 1) // max(int(2 * Fraction(x)) for x in spins)
        code, out, err = run(capsys, "asym", "--kind", kind, "--k", str(k), *spins)
        assert (code, err) == (0, "")
        lines = dict(line.split(maxsplit=1) for line in out.splitlines())
        amplitude, angle = float(lines["amplitude"]), float(lines["angle"])
        assert lines["parity"] == parity and k % 2 == 1
        assert 0.0 < amplitude < math.inf and abs(angle) < 2**44 and math.ulp(angle) <= 2**-10
        code, out, err = run(capsys, "asym", "--kind", kind, "--k", str(k + 1), *spins)
        assert (code, out) == (2, "") and err.startswith("error: k times the largest spin")

    @pytest.mark.parametrize("command, spins", [
        pytest.param(("geometry",), ("0", "0", "1/2", "0", "0", "10" * 40), id="geometry-flat"),
        pytest.param(("geometry",), (str(10**60),) * 6, id="geometry-regular"),
        pytest.param(("asym", "--kind", "su2", "--k", "1"), (str(10**60),) * 6, id="asym-su2"),
        pytest.param(("asym", "--kind", "super", "--k", "3"), (str(10**60),) * 6, id="asym-super"),
        pytest.param(("asym", "--kind", "super", "--k", "1"),
                     (f"{BETA_N}/2", *(str(BETA_N),) * 5), id="asym-beta"),
    ])
    def test_spins_past_the_float_range_are_usage_error(self, capsys, command, spins):
        # the Cayley-Menger determinant of these spins has no float value;
        # {1/2 1 1; 1 1 1} times 10**20 + 1 lies past the asymptotics' domain
        code, out, err = run(capsys, *command, *spins)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["su2", "super"])
    def test_eval_spins_past_the_factorial_range_are_usage_error(self, capsys, kind):
        # a factorial argument of {N N 0; N N 0} is 2N, past sys.maxsize
        n = str(10**60)
        code, out, err = run(capsys, "eval", "--kind", kind, n, n, "0", n, n, "0")
        assert code == 2
        assert out == ""
        assert err == "error: spins are too large for exact evaluation\n"

    @pytest.mark.parametrize("kind, spins", [
        ("su2", ("101",) * 6),
        ("super", ("101/2",) * 6),
        ("su2", ("100000", "100000", "0", "100000", "100000", "0")),
    ])
    def test_eval_over_the_cost_bound_is_usage_error(self, capsys, monkeypatch, kind, spins):
        monkeypatch.setattr("sixj.symbols.MAX_EXACT_COST", 10**6)
        code, out, err = run(capsys, "eval", "--kind", kind, *spins)
        assert (code, out, err) == (2, "", "error: spins are too large for exact evaluation\n")

    @pytest.mark.parametrize("kind, coeff", [("su2", "1/1516001"), ("super", "1")])
    def test_eval_of_one_term_with_large_factorials_runs(self, capsys, kind, coeff):
        # {N N 0; N N 0}, 1/(2N + 1) for SU(2): one term, factorials up to 2N + 1, 0.3 s
        code, out, err = run(capsys, "eval", "--kind", kind, *("758000 758000 0 " * 2).split())
        assert (code, err) == (0, "")
        assert out.startswith(f"coeff     {coeff}\nradicand  1\n")

    @pytest.mark.parametrize("kind, spins", [("su2", ("1",) * 6), ("super", HALVES)])
    def test_scan_checks_the_largest_k_before_any_evaluation(self, capsys, monkeypatch, kind, spins):
        monkeypatch.setattr("sixj.symbols.MAX_EXACT_COST", 10**6)
        evaluated = mock.Mock(side_effect=AssertionError("evaluated"))
        scan_module = importlib.import_module("sixj.scan")  # sixj.scan is the function
        monkeypatch.setattr(scan_module, "sixj_exact", evaluated)
        monkeypatch.setattr(scan_module, "sixj_super_exact", evaluated)
        code, out, err = run(capsys, "scan", "--kind", kind, "--k-from", "1", "--k-to", "201", *spins)
        assert (code, out, err) == (2, "", "error: spins are too large for exact evaluation\n")
        assert not evaluated.called

    def test_scan_over_the_summed_cost_bound_is_usage_error(self, capsys, monkeypatch):
        # each k up to 51200 passes the bound alone; the whole scan, some 250 h of work, does not
        evaluated = mock.Mock(side_effect=AssertionError("evaluated"))
        scan_module = importlib.import_module("sixj.scan")
        monkeypatch.setattr(scan_module, "sixj_exact", evaluated)
        code, out, err = run(capsys, "scan", "--k-from", "1", "--k-to", "51200", *("1",) * 6)
        assert (code, out, err) == (2, "", "error: spins are too large for exact evaluation\n")
        assert not evaluated.called

    @pytest.mark.parametrize("k_range", [
        ("--k-from", "1", "--k-to", str(10**30)),
        ("--k-from", "1", "--k-to", "100001"),
        ("--k-from", "5", "--k-to", "200005", "--k-step", "2"),
    ])
    def test_scan_k_range_over_the_point_bound_is_usage_error(self, capsys, k_range):
        # 10**30 values, and 100001 values: refused before the k list is built
        code, out, err = run(capsys, "scan", *k_range, *("1",) * 6)
        assert (code, out, err) == (2, "", "error: a scan takes at most 100000 k values\n")

    @pytest.mark.parametrize("command", [
        ("asym", "--k", "0"),
        ("scan", "--k", "0"),
        ("scan", "--k-from", "0", "--k-to", "3"),
    ], ids=["asym", "scan-k", "scan-range"])
    def test_k_below_one_has_the_scale_factor_message(self, capsys, command):
        code, out, err = run(capsys, *command, *("1",) * 6)
        assert (code, out, err) == (2, "", "error: scale factor must be a positive integer, got 0\n")

    @pytest.mark.parametrize("command", [("geometry",)])
    def test_large_spins_still_print(self, capsys, command):
        code, out, _ = run(capsys, *command, *(str(10**50),) * 6)
        assert code == 0
        assert out.startswith("volume    ")

    @pytest.mark.parametrize("k, expected", [(1, 3), (2, 0), (3, 3)])
    def test_asym_su2_exit_code_matches_eval(self, capsys, k, expected):
        scaled = [str(k * Fraction(x)) for x in self.HALVES]
        asym_code, _, _ = run(capsys, "asym", "--kind", "su2", "--k", str(k), *self.HALVES)
        eval_code, _, _ = run(capsys, "eval", "--kind", "su2", *scaled)
        assert asym_code == eval_code == expected


class TestDigitLimit:
    """Exact values print past the interpreter's 4300-digit limit on int-to-text
    conversion; the inputs are parsed under it, and the caller's limit holds after."""

    NINES = "9" * 4300

    def test_eval_prints_a_coefficient_of_any_length(self):
        code, out = run_documented(["eval", *("8001",) * 6])
        coeff, radicand, value = out.splitlines()
        assert code == 0 and coeff.startswith("coeff     1667984083273575868890139658866771627580")
        assert len(coeff) == len("coeff     ") + 12633
        assert (radicand, value) == ("radicand  1", "value     6.549832126885787e-07")

    def test_classify_prints_sums_of_any_length(self):
        code, out = run_documented(["classify", *(self.NINES,) * 6])
        # 3 j = 2 9...9 7 and 4 j = 3 9...9 6, for j the 4300 nines
        v, p = "2" + "9" * 4299 + "7", "3" + "9" * 4299 + "6"
        assert code == 0
        assert out.splitlines() == ["parity    alpha", "v         " + " ".join([v] * 4), "p         " + " ".join([p] * 3)]

    def test_an_inadmissible_sextuple_of_any_length_is_exit_3(self, capsys):
        limit = digit_limit()
        code, out, err = run(capsys, "eval", "1", self.NINES, "1", "1", "1", "1")
        assert (code, out, digit_limit()) == (3, "", limit)
        assert err.startswith("error: triangular inequality fails: p=4 < v=1" + "0" * 4299)

    @pytest.mark.parametrize("argv, message", [
        (["eval", "9" * 4301, *("1",) * 5], "error: Exceeds the limit (4300 digits)"),
        (["asym", "--k", "9" * 4301, *("1",) * 6], "sixj asym: error: argument --k: invalid int value"),
    ], ids=["spin", "k"])
    def test_inputs_are_parsed_under_the_limit(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and message in err

    @pytest.mark.parametrize("limit", [0, 640, 5000])
    def test_the_callers_limit_is_restored(self, capsys, limit):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int-digit limit")
        previous = digit_limit()
        sys.set_int_max_str_digits(limit)
        try:
            assert run(capsys, "eval", *("20",) * 6)[0] == 0
            assert digit_limit() == limit
            assert run(capsys, "eval", "1", "2", *("20",) * 4)[0] == 3
            assert digit_limit() == limit
        finally:
            sys.set_int_max_str_digits(previous)

    def test_a_failed_stdout_write_is_one_error_line(self, capsys):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with contextlib.redirect_stdout(BrokenPipe()):
            code = cli_main(["eval", *("1",) * 6])
        assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")


def half_text(d: int) -> str:
    """The spin d/2 as "n" or "m/2"."""
    return str(d // 2) if d % 2 == 0 else f"{d}/2"


# malformed or borderline tokens for the spin and k parsers, and one spin too large
# for the floating-point geometry
JUNK = ["", "-", "x", "1/0", "1/3", "-1/2", "nan", "inf", "1e3", "0x10", "1.25", "½", "--k", "3/2/2", " 1", "10" * 40]
# half-integer spins 0 ... 200 as "n", "n.0" or "m/2"
HALF_SPIN = st.integers(0, 400).map(half_text)
# six doubled spins 0 ... 8, or those of an alpha, a beta or a gamma sextuple, times
# one factor 10**e + c of either parity, so spins reach 4 * 10**60: past the float
# range of the geometry (about 10**51) and the asymptotics' domain (2**39 at k = 1)
SCALED_SPINS = st.tuples(
    st.one_of(st.sampled_from([(2,) * 6, (1, 2, 2, 2, 2, 2), (1,) * 6]),
              st.lists(st.integers(0, 8), min_size=6, max_size=6)),
    st.builds(lambda e, c: 10**e + c, st.integers(0, 60), st.integers(0, 3)),
).map(lambda t: [half_text(d * t[1]) for d in t[0]])
SPIN_TOKEN = st.one_of(HALF_SPIN, HALF_SPIN.map(lambda t: t if "/" in t else f"{t}.0"), st.sampled_from(JUNK))
K_TOKEN = st.one_of(
    st.integers(-5, 400).map(str),
    st.sampled_from([10**102, 10**103, 10**300 + 1, 10**306, 10**400 + 1, 10**4000]).map(str),
    # both sides of the asymptotics' domain k * max(2j) < 2**40 for spins 1 and 1/2
    st.sampled_from([2**39 - 1, 2**39, 2**40 - 1, 2**40]).map(str),
    st.sampled_from(JUNK),
)


def run_documented(argv) -> tuple[int, str]:
    """Run argv and check the documented contract: an exit code in {0, 2, 3, 4},
    no traceback, stdout only on success and an error otherwise, and the caller's
    int-digit limit unchanged; (code, stdout)."""
    limit = digit_limit()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert digit_limit() == limit, argv
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not err.getvalue()
    else:
        assert not out.getvalue() and err.getvalue(), (argv, err.getvalue())
    return code, out.getvalue()


class TestFuzzGeometryPath:
    """Every argv for geometry and asym ends in a documented exit code, never a traceback."""

    @settings(max_examples=400, deadline=None)
    @given(
        command=st.one_of(
            st.just(["geometry"]),
            st.tuples(st.sampled_from(["su2", "super"]), K_TOKEN).map(
                lambda kk: ["asym", "--kind", kk[0], "--k", kk[1]]
            ),
        ),
        spins=st.one_of(
            st.lists(HALF_SPIN, min_size=6, max_size=6),
            SCALED_SPINS,
            st.lists(SPIN_TOKEN, min_size=5, max_size=7),
        ),
        separator=st.booleans(),
    )
    def test_exit_code_documented(self, command, spins, separator):
        # "--" hands tokens such as "-1/2" or "--k" to the spin parser
        argv = [*command, *(["--"] if separator else []), *spins]
        code, out = run_documented(argv)
        assert code != 0 or out, argv
        if code == 0 and command[0] == "asym":
            # an answer keeps its phase: inside the domain k * max(2j) < 2**40, |angle| < 2**44
            fields = dict(line.split(maxsplit=1) for line in out.splitlines())
            assert float(fields["amplitude"]) > 0.0 and abs(float(fields["angle"])) < 2**44, argv


# half-integer spins 0 ... 10**30 as "n", "m/2" or "n.5", negatives and junk
BIG_HALF_SPIN = st.integers(-4, 2 * 10**30).flatmap(
    lambda d: st.just(str(d // 2)) if d % 2 == 0 else st.sampled_from([f"{d}/2", f"{(d - 1) // 2}.5"])
)
CLASSIFY_TOKEN = st.one_of(BIG_HALF_SPIN, st.sampled_from(JUNK), st.text(max_size=4))


class TestFuzzClassify:
    """Every argv for classify ends in exit code 0, 2 or 3, never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(
        spins=st.one_of(
            BIG_HALF_SPIN.map(lambda t: [t] * 6),  # admissible unless negative
            st.lists(BIG_HALF_SPIN, min_size=6, max_size=6),
            st.lists(CLASSIFY_TOKEN, min_size=5, max_size=7),
        ),
        separator=st.booleans(),
    )
    @example(spins=["9" * 4300] * 6, separator=False)  # at the interpreter's int-digit limit
    def test_exit_code_documented(self, spins, separator):
        argv = ["classify", *(["--"] if separator else []), *spins]
        code, out = run_documented(argv)
        assert code in (0, 2, 3), (argv, code)
        assert code != 0 or out.startswith("parity    "), argv


# spins for eval and scan: admissible small ones (weighted up), six equal, large and junk
SMALL_SPINS = st.one_of(
    st.sampled_from(["1 1 1 1 1 1", "1/2 1/2 1/2 1/2 1/2 1/2", "1 3/2 3/2 3/2 3/2 1", "3 2 2 2 3 2"]).map(str.split),
    st.integers(0, 20).map(lambda d: [str(d // 2) if d % 2 == 0 else f"{d}/2"] * 6),
)
EXACT_SPINS = st.one_of(
    SMALL_SPINS, SMALL_SPINS, SMALL_SPINS,
    BIG_HALF_SPIN.map(lambda t: [t] * 6),
    st.lists(HALF_SPIN, min_size=6, max_size=6),
    st.lists(BIG_HALF_SPIN, min_size=6, max_size=6),
    st.lists(CLASSIFY_TOKEN, min_size=5, max_size=7),
)
SCAN_K_VALUE = st.one_of(
    st.integers(1, 40).map(str), st.integers(-2, 10**6).map(str),
    st.sampled_from([str(10**30), str(10**100)]), st.sampled_from(JUNK),
)


@st.composite
def scan_k_options(draw):
    """--k, or --k-from/--k-to with or without --k-step, or any mix of the four;
    ranges of up to 10**6 values."""
    small = draw(st.integers(0, 3)) > 0  # mostly a few small k
    k_from = draw(st.integers(1, 30) if small else st.integers(-2, 10**6))
    values = {
        "--k": draw(SCAN_K_VALUE),
        "--k-from": str(k_from),
        "--k-to": str(k_from + draw(st.integers(-1, 30) if small else st.integers(-3, 10**6))),
        "--k-step": str(draw(st.integers(1, 5))) if small else draw(st.one_of(SCAN_K_VALUE, st.just("0"))),
    }
    if small:
        flags = draw(st.sampled_from([["--k"], ["--k-from", "--k-to"], ["--k-from", "--k-to", "--k-step"]]))
    else:
        flags = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    return [token for flag in flags for token in (flag, values[flag])]


class TestFuzzExact:
    """Every argv for eval and scan ends in a documented exit code, never a traceback.

    The cost bound is patched low, so that no example evaluates for long.
    """

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["su2", "super"]), spins=EXACT_SPINS, separator=st.booleans())
    def test_eval_exit_code_documented(self, kind, spins, separator):
        with mock.patch("sixj.symbols.MAX_EXACT_COST", 10**7):
            code, out = run_documented(["eval", "--kind", kind, *(["--"] if separator else []), *spins])
        assert code != 0 or out.startswith("coeff     ")

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["su2", "super"]),
        k_options=scan_k_options(),
        spins=st.one_of(SMALL_SPINS, EXACT_SPINS),
        out_file=st.sampled_from([None, "out.csv", "missing/out.csv"]),
        json_format=st.booleans(),
    )
    def test_scan_exit_code_documented(self, kind, k_options, spins, out_file, json_format):
        with tempfile.TemporaryDirectory() as tmp, mock.patch("sixj.symbols.MAX_EXACT_COST", 10**7):
            path = out_file and os.path.join(tmp, out_file)
            argv = ["scan", "--kind", kind, *k_options, *(["--format", "json"] if json_format else [])]
            argv += [*(["--out", path] if path else []), "--", *spins]
            code, out = run_documented(argv)
            if path:  # the file, and only the file, on success
                assert os.path.exists(path) == (code == 0) and not out, argv
            elif code == 0:
                assert out.startswith(("[", "k,parity,")), argv


CSV_HEADER = "k,parity,exact_mantissa,exact_exp2,exact_float,asym,abs_err,amplitude,angle".split(",")
CSV_JUNK = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1e400", "1.5", "0", "-1", '"', '""', "a,b", "x\ny",
                     "\x00", "x" * 131073, str(10**200), str(10**400), str(2**53 + 1)]),
    st.text(max_size=6),
)
# each column's plausible values; k is drawn per file, as k0 + step * row
CSV_COLUMN_CELL = {
    "exact_mantissa": st.floats(1.0, 2.0, exclude_max=True).flatmap(lambda m: st.sampled_from([m, -m])).map(repr),
    "exact_exp2": st.sampled_from([0, 1, 2, 3]).flatmap(
        lambda i: st.sampled_from([2**53, -(2**53)]) if i == 0 else st.integers(-300, 300)
    ).map(str),
}


@st.composite
def scan_csv_text(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=200))
    header = CSV_HEADER if draw(st.integers(0, 2)) else draw(
        st.one_of(st.permutations(CSV_HEADER), st.lists(st.sampled_from(CSV_HEADER), min_size=1, max_size=11))
    )
    k0 = draw(st.sampled_from([1, 5, 21, 10**20, 1, 5, 21, 10**20, 0, -2]))
    step = draw(st.sampled_from([1, 2, 1, 2, 1, 2, 1, 2, 0, -1]))
    rows = [header]
    for i in range(draw(st.integers(0, 16))):
        cells = [str(k0 + step * i) if name == "k" else draw(CSV_COLUMN_CELL.get(name, st.floats().map(repr)))
                 for name in header]
        # one row in eight is spoiled: a junk cell, or a cell too few or too many
        spoil = draw(st.sampled_from(["junk", "short", "long"] + [None] * 21))
        if spoil == "junk":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(CSV_JUNK)
        elif spoil == "short":
            cells.pop()
        elif spoil == "long":
            cells.append(draw(CSV_JUNK))
        rows.append(cells)
    return "".join(",".join(row) + "\n" for row in rows)


class TestFuzzSlope:
    """Every CSV text given to slope ends in exit code 0 or 2, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(text=scan_csv_text())
    def test_exit_code_documented(self, text):
        with mock.patch("sys.stdin", io.StringIO(text)):
            code, out = run_documented(["slope", "-"])
        assert code in (0, 2), (text[:300], code)
        assert code != 0 or out.startswith("slope      "), text[:300]
