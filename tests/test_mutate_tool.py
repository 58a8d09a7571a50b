"""tools/mutate.py keeps working: its operators on a snippet, and one mutant run end to end."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutate.py"
# the record tests draw no hypothesis examples, and without its plugin a child pytest starts in
# about 0.4 s, not 1.3 s (2 shared vCPUs)
FAST_ARGS = ["tests/test_records.py", "-k", "deletion", "-p", "no:hypothesispytest"]

SNIPPET = '''def f(x, y=3):
    """doc"""
    if x < y:
        raise ValueError(f"{x} below {y + 1}")
    return x - 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("_mutate_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_operator_on_a_snippet():
    tool = _tool()
    mutants = {(op, tool.apply(SNIPPET, span, text)) for op, span, text in tool.mutations(SNIPPET)}
    lines = SNIPPET.splitlines(keepends=True)

    def with_line(i, text):
        return "".join(lines[:i] + [text] + lines[i + 1:])

    assert mutants == {
        ("int constant +1", SNIPPET.replace("y=3", "y=(4)")),
        ("int constant -1", SNIPPET.replace("y=3", "y=(2)")),
        ("flip comparison", SNIPPET.replace("x < y", "(x >= y)")),
        ("drop if body", with_line(3, "        pass\n")),
        ("drop raise", with_line(3, "        pass\n")),
        ("negate return", SNIPPET.replace("return x - 1", "return -(x - 1)")),
        ("swap + and -", SNIPPET.replace("x - 1", "(x + 1)")),
        ("int constant +1", SNIPPET.replace("x - 1", "x - (2)")),
        ("int constant -1", SNIPPET.replace("x - 1", "x - (0)")),
    }  # nothing inside the f-string is mutated


def test_every_mutant_of_a_module_compiles_and_differs():
    tool = _tool()
    source = (tool.PACKAGE / "record.py").read_text(encoding="utf-8")
    sites = tool.mutations(source)
    assert len(sites) > 10
    for _, span, text in sites:
        mutant = tool.apply(source, span, text)
        assert mutant != source
        compile(mutant, "record.py", "exec")


def test_one_mutant_run_leaves_the_tree_alone():
    record = ROOT / "src" / "sixj" / "record.py"
    before = record.read_bytes(), record.stat().st_mtime_ns
    run = subprocess.run([sys.executable, str(TOOL), "--module", "record", "--max", "1", "--seed", "3",
                          "--", *FAST_ARGS],
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    out = run.stdout.splitlines()
    assert re.fullmatch(r"src/sixj/record\.py: \d+ mutation sites, running 1 \(seed 3\) against "
                        r"tests/test_records\.py -k deletion -p no:hypothesispytest", out[0]), out
    assert re.fullmatch(r"  line +\d+  .+: (killed|survived) \(\d+\.\d s\)", out[1]), out
    assert re.fullmatch(r"score (100|0)%: 1 (killed|survived)", out[-1]), out
    assert (record.read_bytes(), record.stat().st_mtime_ns) == before


def test_a_mutant_is_killed_only_by_a_test_that_reaches_it():
    tool = _tool()
    source = (tool.PACKAGE / "record.py").read_text(encoding="utf-8")
    lines = source.splitlines()

    def site(op, text):
        found = [m for m in tool.mutations(source) if m[0] == op and text in lines[m[1][0] - 1]]
        assert len(found) == 1, found
        return found[0]

    # the deletion test reaches __delattr__'s raise, never __reduce__
    sample = [site("drop raise", "cannot delete"), site("negate return", "return type(self)")]
    runs = list(tool.run_mutants("record", sample, FAST_ARGS))
    assert [(mutation, outcome) for mutation, outcome, _, _ in runs] == [
        (sample[0], "killed"), (sample[1], "survived")]
    assert "\n+        return -((type(self), tuple(" in runs[1][2]
