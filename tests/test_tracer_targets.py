"""Every span target of the benchmark's tracer names a live function.

``perfbench/tracer.py`` looks each "module:attribute" target up with a bare
getattr when ``perfbench/run.py --trace 1`` starts, so a renamed or moved
function would break traced runs without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _groups():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GROUPS


TARGETS = [t for targets in _groups().values() for t in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    mod_name, _, attr = target.partition(":")
    owner = importlib.import_module(mod_name)
    cls_name, _, meth = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
        assert meth in vars(owner), target
        attr = meth
    assert callable(getattr(owner, attr)), target
