import contextlib
import importlib
import io
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixj.cli import cli_main


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
    def _one_float_log_k(rows):
        for i, row in enumerate(rows[1:]):
            row[0] = str(10**20 + i)

    @pytest.mark.parametrize("mutate", [
        "_short_row", "_long_row", "_repeated_k", "_oversized_cell", "_huge_exp2", "_one_float_log_k",
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

    def test_asym_su2_bad_face_is_inadmissible(self, capsys):
        code, out, _ = run(capsys, "asym", "--kind", "su2", "--k", "2", *self.BAD_FACE)
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("kind, k, spins", [
        pytest.param("su2", 10**103, ("1",) * 6, id="su2-1e103"),  # k**3 past the float range
        pytest.param("super", 10**400 + 1, HALVES, id="super-1e400+1"),  # k past the float range
    ])
    def test_asym_huge_k_is_usage_error(self, capsys, kind, k, spins):
        code, out, err = run(capsys, "asym", "--kind", kind, "--k", str(k), *spins)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind, k, spins", [
        pytest.param("su2", 10**102, ("1",) * 6, id="su2-1e102"),
        pytest.param("super", 10**300 + 1, HALVES, id="super-1e300+1"),
    ])
    def test_asym_large_k_still_prints(self, capsys, kind, k, spins):
        code, out, _ = run(capsys, "asym", "--kind", kind, "--k", str(k), *spins)
        assert code == 0
        assert out.startswith("parity    ")

    @pytest.mark.parametrize("command, spins", [
        pytest.param(("geometry",), ("0", "0", "1/2", "0", "0", "10" * 40), id="geometry-flat"),
        pytest.param(("geometry",), (str(10**60),) * 6, id="geometry-regular"),
        pytest.param(("asym", "--kind", "su2", "--k", "1"), (str(10**60),) * 6, id="asym-su2"),
        pytest.param(("asym", "--kind", "super", "--k", "3"), (str(10**60),) * 6, id="asym-super"),
    ])
    def test_spins_past_the_float_range_are_usage_error(self, capsys, command, spins):
        # the Cayley-Menger determinant of these spins has no float value
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

    @pytest.mark.parametrize("k_range", [
        ("--k-from", "1", "--k-to", str(10**30)),
        ("--k-from", "1", "--k-to", "100001"),
        ("--k-from", "5", "--k-to", "200005", "--k-step", "2"),
    ])
    def test_scan_k_range_over_the_point_bound_is_usage_error(self, capsys, k_range):
        # 10**30 values, and 100001 values: refused before the k list is built
        code, out, err = run(capsys, "scan", *k_range, *("1",) * 6)
        assert (code, out, err) == (2, "", "error: a scan takes at most 100000 k values\n")

    @pytest.mark.parametrize("command", [("geometry",), ("asym", "--kind", "super", "--k", "3")])
    def test_large_spins_still_print(self, capsys, command):
        code, out, _ = run(capsys, *command, *(str(10**50),) * 6)
        assert code == 0
        assert out.startswith(("volume    ", "parity    "))

    @pytest.mark.parametrize("k, expected", [(1, 3), (2, 0), (3, 3)])
    def test_asym_su2_exit_code_matches_eval(self, capsys, k, expected):
        scaled = [str(k * Fraction(x)) for x in self.HALVES]
        asym_code, _, _ = run(capsys, "asym", "--kind", "su2", "--k", str(k), *self.HALVES)
        eval_code, _, _ = run(capsys, "eval", "--kind", "su2", *scaled)
        assert asym_code == eval_code == expected


# malformed or borderline tokens for the spin and k parsers, and one spin too large
# for the floating-point geometry
JUNK = ["", "-", "x", "1/0", "1/3", "-1/2", "nan", "inf", "1e3", "0x10", "1.25", "½", "--k", "3/2/2", " 1", "10" * 40]
# half-integer spins 0 ... 200 as "n", "n.0" or "m/2"
HALF_SPIN = st.integers(0, 400).map(lambda d: str(d // 2) if d % 2 == 0 else f"{d}/2")
SPIN_TOKEN = st.one_of(HALF_SPIN, HALF_SPIN.map(lambda t: t if "/" in t else f"{t}.0"), st.sampled_from(JUNK))
K_TOKEN = st.one_of(
    st.integers(-5, 400).map(str),
    st.sampled_from([10**102, 10**103, 10**300 + 1, 10**400 + 1, 10**4000]).map(str),
    st.sampled_from(JUNK),
)


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
            st.lists(SPIN_TOKEN, min_size=5, max_size=7),
        ),
        separator=st.booleans(),
    )
    def test_exit_code_documented(self, command, spins, separator):
        # "--" hands tokens such as "-1/2" or "--k" to the spin parser
        argv = [*command, *(["--"] if separator else []), *spins]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert out.getvalue() and not err.getvalue()
        else:
            assert err.getvalue()


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
    def test_exit_code_documented(self, spins, separator):
        argv = ["classify", *(["--"] if separator else []), *spins]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        assert code in (0, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert out.getvalue().startswith("parity    ") and not err.getvalue()
        else:
            assert err.getvalue()


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
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["slope", "-"])
        assert code in (0, 2), (text[:300], code)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert out.getvalue().startswith("slope      ") and not err.getvalue()
        else:
            assert err.getvalue()
