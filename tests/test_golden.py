"""Byte-identity guard: stdout, stderr and exit code of the CLI on a fixed set.

Every command in ``golden_cli.json`` is run in-process through ``cli_main``
and must reproduce the recorded output exactly.  The set covers SU(2) and all
three OSP(1|2) parities, exact zeros, degenerate geometry, usage errors and
the admissibility errors reachable from spin text: a broken triangle
inequality and a half-integer SU(2) perimeter.  (An odd count of integer
triangle sums cannot come from six spins, since the doubled sums add up to
an even number, so ParityViolation has no CLI reproducer.)

The record is regenerated only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import builtins
import contextlib
import glob
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sixj.cli import cli_main

DATA = Path(__file__).with_name("golden_cli.json")

SEXTUPLES = [
    "1 1 1 1 1 1",          # SU(2) regular / alpha
    "2 2 2 2 2 2",
    "1 1 1 2 2 2",
    "3 2 2 2 3 2",
    "3 3/2 5/2 3/2 3 2",    # alpha with half-integer spins
    "1/2 1/2 1 1/2 1/2 1",  # alpha, flat tetrahedron
    "1/2 1 1 1 1 1/2",      # beta, flat tetrahedron
    "1 3/2 3/2 3/2 3/2 1",  # beta
    "3/2 2 3/2 1 1 3/2",
    "2 2 3/2 2 5/2 3/2",
    "1 1 1 1 1 3/2",        # beta, exact zero
    "1/2 1/2 1/2 1/2 1/2 1/2",  # gamma
    "3/2 3/2 3/2 3/2 3/2 3/2",
    "3 5/2 3 2 5/2 3",
    "3/2 3/2 2 2 2 3/2",    # SU(2) exact zero
    "1 3/2 3/2 3 5/2 5/2",  # alpha exact zero
    "0 0 0 0 0 0",          # degenerate geometry
    "1 1 0 1 1 0",
    "4 1 1 1 1 4",          # triangle inequality fails
    "1/2 1/2 3/2 1/2 5/2 3/2",  # a face breaks the triangle inequality
    "0.25 1 1 1 1 1",       # not a half-integer: usage error
]

# Sextuples that are inadmissible for an algebra AND non-Euclidean.  For
# them, scan and asym --kind super report the admissibility error (exit 3),
# as eval does; that order is pinned by tests/test_cli.py, not here.
INADMISSIBLE_FLAT = {
    "1/2 1 1 1 1 1/2": ("su2",),
    "4 1 1 1 1 4": ("su2", "super"),
    "1/2 1/2 3/2 1/2 5/2 3/2": ("su2", "super"),
}

COMMANDS = [
    ["eval", "--kind", "su2"],
    ["eval", "--kind", "super"],
    ["classify"],
    ["geometry"],
    ["asym", "--kind", "su2", "--k", "3"],
    ["asym", "--kind", "super", "--k", "3"],
    ["asym", "--kind", "super", "--k", "4"],
    ["scan", "--kind", "su2", "--k-from", "1", "--k-to", "5"],
    ["scan", "--kind", "super", "--k-from", "1", "--k-to", "5"],
]


def golden_argvs() -> list[list[str]]:
    out = []
    for text in SEXTUPLES:
        for cmd in COMMANDS:
            order_moves = cmd[0] == "scan" or cmd[:3] == ["asym", "--kind", "super"]
            if order_moves and cmd[2] in INADMISSIBLE_FLAT.get(text, ()):
                continue
            out.append(cmd + text.split())
    return out


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    cases = json.loads(DATA.read_text(encoding="utf-8"))
    return {" ".join(case["argv"]): case for case in cases}


def test_record_covers_the_golden_set(recorded):
    assert list(recorded) == [" ".join(argv) for argv in golden_argvs()]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_output_is_byte_identical(recorded, argv):
    assert run_cli(argv) == recorded[" ".join(argv)]


def sum_312(iterable, start=0):
    """sum() as Python 3.12 and later compute it: exact for ints, Neumaier's
    compensated sum for floats, with the compensation added at the end."""
    items = list(iterable)
    if not any(isinstance(x, float) for x in items):
        return builtins.sum(items, start)
    total, comp = float(start), 0.0
    for x in map(float, items):
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_sum_312_is_compensated():
    assert sum_312([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert sum_312([3, 4]) == 7 and type(sum_312([3, 4])) is int


def test_bytes_do_not_depend_on_the_float_sum(recorded, monkeypatch, tmp_path):
    # the printed floats are those of a left-to-right sum, whatever sum() does
    for name in ("sixj.asymptotics", "sixj.scan", "sixj.geometry"):
        monkeypatch.setattr(importlib.import_module(name), "sum", sum_312, raising=False)
    for argv in golden_argvs():
        if argv[0] in ("asym", "scan"):
            assert run_cli(argv) == recorded[" ".join(argv)]
    path = str(tmp_path / "scan.csv")
    scan_argv = ["scan", "--k-from", "21", "--k-to", "301", "--k-step", "2", "--out", path]
    assert run_cli(scan_argv + ["1"] * 6)["code"] == 0
    assert run_cli(["slope", path])["stdout"].splitlines()[0] == "slope      -1.4952312160240868"


# run in another interpreter: the golden cases whose output differs, as JSON
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from sixj.cli import cli_main
bad = []
for case in json.loads(open(sys.argv[2], encoding="utf-8").read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(case["argv"]))
    if {"argv": case["argv"], "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()} != case:
        bad.append(" ".join(case["argv"]))
print(json.dumps(bad))
"""


def other_interpreters() -> dict[tuple[int, ...], str]:
    """One executable per CPython version >= 3.10, other than the running one,
    among python3.10 ... python3.13 on PATH and the pyenv versions."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
    candidates += sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/3.*/bin/python")))
    found = {}
    for exe in filter(None, candidates):
        try:  # a pyenv shim for a version that is not selected exits non-zero
            probe = subprocess.run([exe, "-I", "-c", "import sys; print(*sys.version_info[:3])"],
                                   capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        version = tuple(map(int, probe.stdout.split())) if probe.returncode == 0 else ()
        if version >= (3, 10) and version != sys.version_info[:3]:
            found.setdefault(version, exe)
    return found


def test_bytes_are_the_same_on_every_other_interpreter():
    found = other_interpreters()
    if not found:
        pytest.skip("no other CPython >= 3.10 is installed")
    src = str(Path(__file__).resolve().parents[1] / "src")
    mismatches = {}
    for version, exe in sorted(found.items()):
        run = subprocess.run([exe, "-I", "-B", "-c", _CHILD, src, str(DATA)],
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, (version, run.stderr)
        mismatches[".".join(map(str, version))] = json.loads(run.stdout)
    assert all(not bad for bad in mismatches.values()), mismatches


if __name__ == "__main__":
    records = [run_cli(argv) for argv in golden_argvs()]
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} commands to {DATA}")
