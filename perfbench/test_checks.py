"""Tests of the benchmark's correctness checks.

Each check must pass on the program's real outputs and fail when one output
is doctored: a sign flip, a coefficient off by one part, a shifted slope, a
dropped CSV row and so on.  The workloads are cut down so the tests run in
seconds; run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import copy
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, inputs, oracles, passes  # noqa: E402


def _outputs(workload, items, workdir=""):
    prepared = passes.prepare(workload, items, str(workdir))
    results, errors = passes.run(workload, prepared)
    assert errors == []
    return passes.serialize(workload, prepared, results)


# -- reference computations ---------------------------------------------------


def test_references_match_closed_forms():
    # {a b c; 0 c b} = (-1)^(a+b+c) / sqrt((2b+1)(2c+1))
    for a, b, c in [(2, 2, 2), (2, 4, 4), (4, 3, 5), (8, 6, 4)]:
        sign = -1 if (a + b + c) // 2 % 2 else 1
        want = ((sign, 1), (1, (b + 1) * (c + 1)))
        got = oracles.racah((a, b, c, 0, c, b))
        assert oracles.same_value(*want, got)
    # the OSP(1|2) all-halves symbol is -3/2
    assert oracles.same_value((-3, 2), (1, 1), oracles.super_sixj((1,) * 6))


def test_same_value_rejects_sign_and_size():
    ref = oracles.racah((2,) * 6)
    (n, d), rad = ref
    assert oracles.same_value((n, d), rad, ref)
    assert not oracles.same_value((-n, d), rad, ref)
    assert not oracles.same_value((n * 10**6 + 1, d * 10**6), rad, ref)


# -- grid_small ---------------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    items = [("su2", d) for d in inputs.grid("su2", 4)]
    items += [("super", d) for d in inputs.grid("super", 3)]
    return items, _outputs("grid_small", items)


def _find(items, outputs, kind, parity=None):
    """A non-zero item of the kind that is not its class representative."""
    return next(
        i for i, ((k, d), out) in enumerate(zip(items, outputs))
        if k == kind and out[0] != 0 and d != inputs.class_key(d)
        and (parity is None or inputs.parity(d) == parity)
    )


def test_grid_real_outputs_pass(grid):
    items, outputs = grid
    assert checks.check_pass("grid_small", items, outputs) == []


@pytest.mark.parametrize("kind,parity", [("su2", None), ("super", "beta"), ("super", "gamma")])
def test_grid_sign_flip_fails(grid, kind, parity):
    items, outputs = grid
    bad = copy.deepcopy(outputs)
    i = _find(items, outputs, kind, parity)
    bad[i][0] = -bad[i][0]
    assert checks.check_pass("grid_small", items, bad)


def test_grid_coefficient_off_by_one_part_fails(grid):
    items, outputs = grid
    for kind in ("su2", "super"):
        bad = copy.deepcopy(outputs)
        i = _find(items, outputs, kind)
        bad[i][0], bad[i][1] = bad[i][0] * 10**6 + 1, bad[i][1] * 10**6
        assert checks.check_pass("grid_small", items, bad)


def test_grid_wrong_class_representative_fails(grid):
    """A whole tetrahedral class off in the same way is caught by the reference."""
    items, outputs = grid
    bad = copy.deepcopy(outputs)
    key = inputs.class_key((2, 2, 2, 2, 2, 2))
    for i, (kind, d) in enumerate(items):
        if kind == "super" and inputs.class_key(d) == key:
            bad[i][0] = -bad[i][0]
    assert checks.check_pass("grid_small", items, bad)


def test_grid_orthogonality_detects_a_changed_value(grid):
    items, outputs = grid
    values = {(k, d): ((o[0], o[1]), (o[2], o[3])) for (k, d), o in zip(items, outputs)}
    assert checks._check_orthogonality(values) == []
    key = ("su2", (2, 2, 2, 2, 2, 2))
    (n, d), rad = values[key]
    values[key] = ((n, d), (rad[0] * 9, rad[1] * 10))
    assert checks._check_orthogonality(values)


# -- large_k ------------------------------------------------------------------

LARGE_ITEMS = [(kind, d, 301) for kind, d, _ in inputs.LARGE_K]


@pytest.fixture(scope="module")
def large():
    return LARGE_ITEMS, _outputs("large_k", LARGE_ITEMS)


def test_large_real_outputs_pass(large):
    items, outputs = large
    assert checks.check_pass("large_k", items, outputs) == []


@pytest.mark.parametrize("index", range(4))
def test_large_sign_flip_fails(large, index):
    items, outputs = large
    bad = copy.deepcopy(outputs)
    bad[index]["coeff"][0] *= -1
    assert checks.check_pass("large_k", items, bad)


def test_large_coefficient_off_by_one_part_fails(large):
    items, outputs = large
    bad = copy.deepcopy(outputs)
    bad[1]["coeff"][0] += 1
    assert checks.check_pass("large_k", items, bad)


def test_large_scaled_float_off_fails(large):
    items, outputs = large
    bad = copy.deepcopy(outputs)
    bad[2]["scaled"][0] *= 1 + 1e-12
    assert checks.check_pass("large_k", items, bad)


def test_large_asymptotic_gap_and_routing_fail(large):
    items, outputs = large
    bad = copy.deepcopy(outputs)
    amp, angle, value, used = bad[0]["asym"]
    bad[0]["asym"] = [amp, angle + 0.3, amp * math.cos(angle + 0.3), used]
    assert checks.check_pass("large_k", items, bad)
    bad = copy.deepcopy(outputs)
    bad[3]["asym"][3] = "alpha"
    assert checks.check_pass("large_k", items, bad)


# -- scan_cli -----------------------------------------------------------------


@pytest.fixture(scope="module")
def scanned(tmp_path_factory):
    items = list(inputs.SCAN_SEXTUPLES)
    return items, _outputs("scan_cli", items, tmp_path_factory.mktemp("scan"))


def test_scan_real_outputs_pass(scanned):
    items, outputs = scanned
    assert checks.check_pass("scan_cli", items, outputs) == []


@pytest.mark.parametrize("index", range(3))
def test_scan_shifted_slope_fails(scanned, index):
    items, outputs = scanned
    bad = copy.deepcopy(outputs)
    lines = bad[index]["slope_out"].splitlines()
    slope = float(lines[0].split()[1])
    lines[0] = f"slope      {slope + 0.2!r}"
    bad[index]["slope_out"] = "\n".join(lines) + "\n"
    assert checks.check_pass("scan_cli", items, bad)


def test_scan_dropped_row_fails(scanned):
    items, outputs = scanned
    bad = copy.deepcopy(outputs)
    lines = bad[1]["csv"].splitlines(keepends=True)
    del lines[40]
    bad[1]["csv"] = "".join(lines)
    assert checks.check_pass("scan_cli", items, bad)


def test_scan_read_back_mismatch_fails(scanned):
    items, outputs = scanned
    bad = copy.deepcopy(outputs)
    bad[0]["read_back"][7][5] *= 1 + 1e-15
    assert checks.check_pass("scan_cli", items, bad)


def test_scan_envelope_ratio_fails():
    """Asymptotic values 8% too large break the 5% gamma envelope limit."""
    rows = []
    for k in inputs.scan_ks():
        exact = (1.0 + 0.5 * math.cos(k)) / math.sqrt(k)
        m, e = math.frexp(exact)
        rows.append([str(k), "gamma", repr(2 * m), str(e - 1), repr(exact),
                     repr(exact * 1.08), "0.0", "0.0", "0.0"])
    peaks = checks._maxima(rows)
    slope_out = f"slope      {checks._fit_slope(peaks)!r}\n"
    assert checks._check_envelope("t", "super", "gamma", rows, slope_out)
    for r in rows:
        r[5] = r[4]
    assert checks._check_envelope("t", "super", "gamma", rows, slope_out) == []


def test_scan_csv_bytes_differ_between_passes_fails(scanned):
    items, outputs = scanned
    run = checks.RunChecker("scan_cli", items)
    assert run.add_pass(copy.deepcopy(outputs)) == []
    assert run.add_pass(copy.deepcopy(outputs)) == []
    bad = copy.deepcopy(outputs)
    bad[2]["csv"] = bad[2]["csv"].replace("\n", "\r\n", 1)
    assert run.add_pass(bad)


# -- asym_grid ----------------------------------------------------------------


@pytest.fixture(scope="module")
def asym():
    items = [(d, inputs.parity(d) == "alpha")
             for d in inputs.grid("super", 4) if inputs.euclidean(d)][::7]
    return items, _outputs("asym_grid", items)


def _first(items, parity):
    return next(i for i, (d, _) in enumerate(items) if inputs.parity(d) == parity)


def test_asym_real_outputs_pass(asym):
    items, outputs = asym
    assert {inputs.parity(d) for d, _ in items} == {"alpha", "beta", "gamma"}
    assert checks.check_pass("asym_grid", items, outputs) == []


@pytest.mark.parametrize("mutate", [
    lambda o: o["theta_ext"].__setitem__(2, o["theta_ext"][2] + 1e-6),
    lambda o: o.__setitem__("volume", o["volume"] * (1 + 1e-9)),
    lambda o: o["disc"].__setitem__(0, o["disc"][0] * (1 + 1e-6)),
    lambda o: o["odd"].__setitem__(0, -o["odd"][0]),
    lambda o: o["even"].__setitem__(2, o["even"][2] * 1.001),
    lambda o: o["even"].__setitem__(3, "beta"),
])
@pytest.mark.parametrize("parity", ["alpha", "beta", "gamma"])
def test_asym_perturbation_fails(asym, mutate, parity):
    items, outputs = asym
    bad = copy.deepcopy(outputs)
    mutate(bad[_first(items, parity)])
    assert checks.check_pass("asym_grid", items, bad)


def test_asym_wrong_odd_routing_and_standard_fail(asym):
    items, outputs = asym
    bad = copy.deepcopy(outputs)
    bad[_first(items, "gamma")]["odd"][3] = "alpha"
    assert checks.check_pass("asym_grid", items, bad)
    bad = copy.deepcopy(outputs)
    i = _first(items, "alpha")
    bad[i]["standard"][1] += 1e-5
    assert checks.check_pass("asym_grid", items, bad)


# -- the command itself -------------------------------------------------------


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
