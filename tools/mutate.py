"""Mutation testing of one module of src/sixj/, with the stdlib only.

usage (from the root of a checkout):
    python tools/mutate.py --module symbols --seed 1 --max 40
    python tools/mutate.py --module record --max 3 -- tests/test_records.py

Lists every mutation site of src/sixj/MODULE.py, one per operator and AST
node: a comparison flipped, an int constant moved by +1 or -1, + and -
swapped, a raise or an if body replaced by pass, a return value negated.
It draws at most --max of them with --seed, and for each one writes the
mutant into a temporary copy of src/, tests/ and perfbench/, then runs one
child pytest there (-x, no bytecode written), one mutant at a time.  A mutant whose run
fails is killed; one whose run passes survived, and its diff is printed.
Arguments after ``--`` go to pytest (default: tests/test_MODULE.py, if it
exists, then the golden set and the value hashes).  The working tree is
only read.  The unmutated copy runs first, and must pass: else the tool
exits 2.  A mutant's run may take five times as long, at least 60 s, before
it counts as a timeout.  Exits 1 when a mutant fails to compile or its
pytest runs no test, else 0.
"""

from __future__ import annotations

import argparse
import ast
import difflib
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sixj"
ALWAYS = ["tests/test_golden.py", "tests/test_value_hashes.py"]  # run for every module
FLIPPED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
           ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add}


def mutations(source: str) -> list[tuple[str, tuple[int, int, int, int], str]]:
    """Every mutant of source as (operator, (line, col, end line, end col), new text):
    the span of the original node, in 1-based lines and 0-based UTF-8 columns."""
    tree = ast.parse(source)
    # before 3.12 the positions of nodes inside f-strings can be wrong, so none is mutated
    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    out = []

    def add(op, node, text, body=None):
        first, last = (body[0], body[-1]) if body else (node, node)
        out.append((op, (first.lineno, first.col_offset, last.end_lineno, last.end_col_offset), text))

    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, cmp in enumerate(node.ops):
                if type(cmp) in FLIPPED:
                    ops = [*node.ops]
                    ops[i] = FLIPPED[type(cmp)]()
                    new = ast.Compare(node.left, ops, node.comparators)
                    add("flip comparison", node, f"({ast.unparse(new)})")
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPPED:
            new = ast.BinOp(node.left, SWAPPED[type(node.op)](), node.right)
            add("swap + and -", node, f"({ast.unparse(new)})")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                add(f"int constant {step:+d}", node, f"({node.value + step})")
        elif isinstance(node, ast.Raise):
            add("drop raise", node, "pass")
        elif isinstance(node, ast.If):
            add("drop if body", node, "pass", body=node.body)
        elif isinstance(node, ast.Return) and node.value is not None:
            value = ast.unparse(node.value)
            logical = isinstance(node.value, (ast.Compare, ast.BoolOp)) or (
                isinstance(node.value, ast.Constant) and type(node.value.value) is bool)
            add("negate return", node, f"return not ({value})" if logical else f"return -({value})")
    out.sort(key=lambda m: (m[1], m[0]))
    return out


def apply(source: str, span: tuple[int, int, int, int], text: str) -> str:
    """source with the span replaced by text."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    line, col, end_line, end_col = span
    start = sum(map(len, lines[:line - 1])) + col
    end = sum(map(len, lines[:end_line - 1])) + end_col
    data = b"".join(lines)
    return (data[:start] + text.encode("utf-8") + data[end:]).decode("utf-8")


def run_mutants(module: str, sample: list, pytest_args: list[str]):
    """Yield (mutation, outcome, diff, seconds) for each mutant of module, outcome one of
    killed, survived, timeout, not compiled or pytest's exit code when it ran no test.

    The unmutated copy runs first: RuntimeError if it fails, and a mutant's run may take
    five times as long (at least 60 s) before it counts as a timeout, not as killed."""
    path = PACKAGE / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    rel = path.relative_to(ROOT).as_posix()
    with tempfile.TemporaryDirectory(prefix="sixj-mutate-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "_work")
        for name in ("src", "tests", "perfbench"):  # the value hashes read perfbench's inputs
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / rel
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]

        def pytest(timeout):
            start = time.monotonic()
            code = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout).returncode
            return code, time.monotonic() - start

        code, seconds = pytest(None)
        if code != 0:
            raise RuntimeError(f"the unmutated copy fails: pytest exit {code} on {' '.join(pytest_args)}")
        timeout = max(60.0, 5 * seconds)
        for mutation in sample:
            _, span, text = mutation
            mutant = apply(source, span, text)
            diff = "".join(difflib.unified_diff(source.splitlines(keepends=True),
                                                mutant.splitlines(keepends=True), rel, rel, n=1))
            try:
                compile(mutant, rel, "exec")
            except SyntaxError:
                yield mutation, "not compiled", diff, 0.0
                continue
            target.write_text(mutant, encoding="utf-8")
            try:
                code, seconds = pytest(timeout)
                # 1: a test failed, 2: collection failed; 5 (no tests ran) and the rest kill nothing
                outcome = {0: "survived", 1: "killed", 2: "killed"}.get(code, f"pytest exit {code}")
            except subprocess.TimeoutExpired:
                outcome, seconds = "timeout", timeout
            finally:
                target.write_text(source, encoding="utf-8")
            yield mutation, outcome, diff, seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", required=True, metavar="NAME", help="mutate src/sixj/NAME.py")
    parser.add_argument("--seed", type=int, default=1, help="seed of the sample (default 1)")
    parser.add_argument("--max", type=int, default=40, help="mutants to run at most (default 40)")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    path = PACKAGE / f"{args.module}.py"
    if not path.is_file():
        parser.error(f"no such module in {PACKAGE.relative_to(ROOT)}: {args.module}.py")
    if args.max < 1:
        parser.error("--max must be at least 1")
    own = f"tests/test_{args.module}.py"
    pytest_args = args.pytest_args or ([own] if (ROOT / own).is_file() else []) + ALWAYS
    sites = mutations(path.read_text(encoding="utf-8"))
    sample = sorted(random.Random(args.seed).sample(sites, min(args.max, len(sites))),
                    key=lambda m: (m[1], m[0]))
    print(f"{path.relative_to(ROOT).as_posix()}: {len(sites)} mutation sites, running {len(sample)} "
          f"(seed {args.seed}) against {' '.join(pytest_args)}", flush=True)
    counts: dict[str, int] = {}
    try:
        for (op, span, _), outcome, diff, seconds in run_mutants(args.module, sample, pytest_args):
            counts[outcome] = counts.get(outcome, 0) + 1
            print(f"  line {span[0]:4d}  {op}: {outcome} ({seconds:.1f} s)", flush=True)
            if outcome != "killed":
                print("".join(f"      {line}" for line in diff.splitlines(keepends=True)), flush=True)
    except RuntimeError as exc:
        print(f"mutate: {exc}", file=sys.stderr)
        return 2
    killed, survived = counts.get("killed", 0), counts.get("survived", 0)
    score = f"{killed / (killed + survived):.0%}" if killed + survived else "n/a"
    print(f"score {score}: " + ", ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    return 0 if counts.keys() <= {"killed", "survived", "timeout"} else 1


if __name__ == "__main__":
    sys.exit(main())
