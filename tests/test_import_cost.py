"""Importing the package loads no module that evaluation does not need.

A one-shot CLI call spends far more time importing than evaluating, so
``import sixj, sixj.cli`` must not pull in ``dataclasses`` (which brings
``inspect``, ``ast`` and ``dis``), ``typing`` or ``json``.  Both checks run
in a fresh ``python -I -S`` interpreter, as a user's first call would.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).with_name("golden_cli.json")
AVOIDED = ("dataclasses", "inspect", "typing", "json", "ast", "dis")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh isolated interpreter without site, with src on the path."""
    prelude = f"import sys; sys.path.insert(0, {SRC!r}); "
    return subprocess.run([sys.executable, "-I", "-S", "-c", prelude + code, *args],
                          capture_output=True, text=True, timeout=60, check=True)


def test_import_loads_none_of_the_avoided_modules():
    code = f"import sixj, sixj.cli; print(sorted(set({AVOIDED!r}) & set(sys.modules)))"
    assert _python(code).stdout == "[]\n"


def test_module_entry_point_prints_the_golden_bytes():
    golden = next(e for e in json.loads(GOLDEN.read_text(encoding="utf-8"))
                  if e["argv"] == ["eval", "--kind", "su2", "1", "1", "1", "1", "1", "1"])
    # python -m sixj eval 1 1 1 1 1 1 (su2 is the default kind), with src on the path
    run = _python("import runpy; runpy.run_module('sixj', run_name='__main__', alter_sys=True)",
                  "eval", "1", "1", "1", "1", "1", "1")
    assert (run.stdout, run.stderr) == (golden["stdout"], golden["stderr"])
