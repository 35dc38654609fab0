"""Every function the benchmark's tracer wraps must exist in plinv.

`perfbench/tracer.py` rebinds each (module, attribute path) of its TARGETS
when `--trace 1` runs; a refactor that renames or deletes one of them
would break tracing without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("name,modname,path", [t[:3] for t in _targets()])
def test_target_resolves(name, modname, path):
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # install() reads the attribute from the owner's own namespace
    assert attr in vars(owner), f"{name}: {modname}.{path} is gone"
    assert callable(getattr(owner, attr))
