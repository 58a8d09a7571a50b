"""The package namespace is the public API that the README lists.

``sixj.__all__`` must equal the names of the README's "Public API" section,
whose count the README states; every listed name must resolve, and every
``sixj.<name>`` that the benchmark's passes (``perfbench/passes.py``) read
must stay in it.
"""

import ast
import re
from pathlib import Path

import sixj

ROOT = Path(__file__).resolve().parents[1]


def _readme_names() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith(("- ", "  "))]
    return re.findall(r"`(\w+)`", "\n".join(bullets))


def test_all_equals_readme_list():
    names = _readme_names()
    assert len(names) == len(set(names)), "a name is listed twice"
    assert sorted(sixj.__all__) == sorted(names)
    assert len(sixj.__all__) == len(set(sixj.__all__))


def test_readme_states_the_count():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert f"`import sixj` binds exactly these {len(sixj.__all__)} names" in text


def test_every_name_resolves():
    for name in sixj.__all__:
        assert getattr(sixj, name) is not None, name


def test_benchmark_passes_read_only_public_names():
    tree = ast.parse((ROOT / "perfbench" / "passes.py").read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sixj"
    }
    assert read, "no sixj.<name> found in perfbench/passes.py"
    assert read <= set(sixj.__all__), sorted(read - set(sixj.__all__))
