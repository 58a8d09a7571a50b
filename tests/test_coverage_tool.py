"""tools/coverage.py keeps working: a traced run on one small module, and its reasons."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "coverage.py"


def _tool():
    spec = importlib.util.spec_from_file_location("_coverage_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_the_module():
    run = subprocess.run([sys.executable, str(TOOL), "--module", "record", "--",
                          "tests/test_records.py", "-q", "-p", "no:cacheprovider"],
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    header = run.stdout.splitlines()[-1]
    assert re.fullmatch(r"src/sixj/record\.py: all \d+ lines run", header), run.stdout


def test_unrun_lines_name_their_function_and_reason():
    tool = _tool()
    cli, entry = tool.PACKAGE / "cli.py", tool.PACKAGE / "__main__.py"
    lines = tool.report([cli, entry], {})  # as if nothing ran
    n_cli, n_entry = len(tool.executable_lines(cli)), len(tool.executable_lines(entry))
    split = 1 + n_cli
    assert lines[0] == f"src/sixj/cli.py: {n_cli} of {n_cli} lines unrun"
    assert lines[split] == f"src/sixj/__main__.py: {n_entry} of {n_entry} lines unrun"
    reasons = {}
    for line in lines[1:split]:
        _, function, why = re.fullmatch(r" +(\d+)  (\S+): (.+)", line).groups()
        reasons.setdefault(function, set()).add(why)
    assert reasons["main"] == {tool.CHILD}
    assert reasons["cli_main"] == {tool.NOT_REACHED}
    assert reasons["<module>"] == {tool.NOT_REACHED, tool.SCRIPT}  # SCRIPT: the if __name__ block
    assert len(lines) == split + 1 + n_entry
    assert all(line.endswith(f"<module>: {tool.CHILD}") for line in lines[split + 1:])
