"""Line coverage of src/sixj/ under a pytest run, with the stdlib only.

usage (from the root of a checkout):
    python tools/coverage.py                                 # the whole suite
    python tools/coverage.py --module record -- tests/test_records.py

Runs pytest in this process under sys.settrace, tracing only frames whose
code lives in src/sixj/, and prints, per module, each line that never ran
with its reason.  The executable lines are those the compiler gives a line
number.  A line that no test reached reads "not reached"; code that runs
only in a child process, which a tracer in this process cannot see, names
that process instead: all of __main__.py, the entry point in CHILD_ONLY
and the body of an ``if __name__ == "__main__":`` block.  Arguments after
``--`` go to pytest (default: the suite's default run).  Exits with
pytest's status.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sixj"
# functions run only by `python -m sixj` and the `sixj` script (pyproject's entry point)
CHILD_ONLY = {"cli.py": {"main"}}
NOT_REACHED = "not reached"
CHILD = "runs only in a child process: python -m sixj, or the sixj script"
SCRIPT = "runs only as a script, python -m sixj.<module>"


def executable_lines(path: Path) -> dict[int, str]:
    """Line -> qualified name of the innermost code object that holds it."""
    lines: dict[int, str] = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        name = getattr(code, "co_qualname", code.co_name)  # co_qualname from 3.11
        for line in {ln for _, _, ln in code.co_lines() if ln}:
            # a def line belongs to its function: the parent's instructions there only build it
            if line not in lines or line == code.co_firstlineno:
                lines[line] = name
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _script_lines(path: Path) -> set[int]:
    """Lines inside the module's ``if __name__ == "__main__":`` blocks."""
    out = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            out.update(range(node.body[0].lineno, node.end_lineno + 1))
    return out


def reason(path: Path, line: int, name: str, script_lines: set[int]) -> str:
    """Why a line that never ran in this process did not."""
    if path.name == "__main__.py" or name.split(".")[0] in CHILD_ONLY.get(path.name, ()):
        return CHILD
    return SCRIPT if line in script_lines else NOT_REACHED


def report(paths: list[Path], hits: dict[str, set[int]]) -> list[str]:
    """One header per module, then one line per unrun line: number, function, reason."""
    out = []
    for path in paths:
        lines = executable_lines(path)
        ran = hits.get(str(path), set())
        unrun = sorted(set(lines) - ran)
        rel = path.relative_to(ROOT).as_posix()
        if not unrun:
            out.append(f"{rel}: all {len(lines)} lines run")
            continue
        out.append(f"{rel}: {len(unrun)} of {len(lines)} lines unrun")
        script = _script_lines(path)
        out.extend(f"  {ln:4d}  {lines[ln]}: {reason(path, ln, lines[ln], script)}" for ln in unrun)
    return out


def traced_pytest(pytest_args: list[str], paths: list[Path]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest here under a line tracer; (exit status, lines run per traced file)."""
    hits = {str(p): set() for p in paths}
    local_of: dict[str, object] = {}  # co_filename -> its file's local tracer, or None

    def local_for(filename: str):
        lines = hits.get(os.path.realpath(filename))
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        local = local_of.get(filename, False)
        if local is False:
            local = local_of[filename] = local_for(filename)
        if local is not None:
            local(frame, "line", arg)  # the call event's line: a def line or a module's first
        return local

    import pytest  # here, so that pytest's own imports happen before the tracer is set

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", action="append", metavar="NAME",
                        help="report only src/sixj/NAME.py (repeatable; default every module)")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    names = args.module or sorted(p.stem for p in PACKAGE.glob("*.py"))
    paths = [Path(os.path.realpath(PACKAGE / f"{name}.py")) for name in names]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        parser.error(f"no such module in {PACKAGE.relative_to(ROOT)}: {', '.join(missing)}")
    # the package from this checkout, and this directory off the path: its name is coverage
    sys.path[:] = [str(ROOT / "src")] + [p for p in sys.path[1:] if p != str(ROOT / "src")]
    os.chdir(ROOT)
    status, hits = traced_pytest(args.pytest_args, paths)
    print("\n".join(report(paths, hits)))
    return status


if __name__ == "__main__":
    sys.exit(main())
