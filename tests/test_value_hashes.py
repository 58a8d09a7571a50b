"""Every computed value is pinned by sha256 prefixes over the benchmark's inputs.

A change that keeps the golden set but moves any value, a last digit of a
scan CSV or JSON or the stored (coeff, radicand) of one symbol, fails here.  The
inputs and passes are the benchmark's own (``perfbench/inputs.py`` and
``perfbench/passes.py``), read without change, so the hashes also say that a
benchmark pass computes what it computed before.
"""

import contextlib
import hashlib
import io
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sixj import SpinSextuple, sixj_exact, sixj_super_exact
from sixj.cli import cli_main

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import inputs, passes  # noqa: E402


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pass_results(workload: str) -> list:
    prepared = passes.prepare(workload, inputs.build(workload, 1), "")
    results, errors = passes.run(workload, prepared)
    assert errors == []
    return results


def test_grid_small_values():
    values = _pass_results("grid_small")
    assert len(values) == 30936
    assert sha("\n".join(f"{v.coeff}|{v.radicand}" for v in values)) == "be168566e761151e"


def test_large_k_results():
    # (ExactSymbol, ScaledFloat, AsymptoticResult) per input
    assert sha("\n".join(map(repr, _pass_results("large_k")))) == "0a950d04902877fb"


@pytest.mark.parametrize("entry, want", zip(inputs.SCAN_SEXTUPLES, [
    "8c873a4568e64088", "f9d5d5e4e40156f6", "1951ac50a328a01b",
]), ids=lambda x: x if isinstance(x, str) else x[0])
def test_scan_cli_csv_and_slope(tmp_path, entry, want):
    kind, doubled = entry
    path = str(tmp_path / "scan.csv")
    spins = [inputs.spin_text(x) for x in doubled]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["scan", "--kind", kind, "--k-from", "21", "--k-to", "301", "--k-step", "2",
                         *spins, "--out", path]) == 0
    slope = io.StringIO()
    with contextlib.redirect_stdout(slope):
        assert cli_main(["slope", path]) == 0
    assert sha(Path(path).read_text() + "\n" + slope.getvalue()) == want


@pytest.mark.parametrize("entry, want", zip(inputs.SCAN_SEXTUPLES, [
    "4eb11669c374c25f", "3e9d64ad539d46fb", "b1d46397005c5786",
]), ids=lambda x: x if isinstance(x, str) else x[0])
def test_scan_cli_json(entry, want):
    kind, doubled = entry
    k_from, k_to, k_step = map(str, inputs.SCAN_K)
    spins = [inputs.spin_text(x) for x in doubled]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["scan", "--kind", kind, "--k-from", k_from, "--k-to", k_to, "--k-step", k_step,
                         "--format", "json", *spins]) == 0
    assert sha(out.getvalue()) == want


def test_every_doubled_sextuple_up_to_six():
    lines = []
    for d in itertools.product(range(7), repeat=6):
        s = SpinSextuple.of(*(Fraction(x, 2) for x in d))
        for evaluate in (sixj_exact, sixj_super_exact):
            try:
                lines.append(repr(evaluate(s)))
            except Exception as exc:  # the error outcomes are pinned too
                lines.append(repr(exc))
    assert len(lines) == 2 * 7**6
    assert sha("\n".join(lines)) == "4a03db7457903983"
