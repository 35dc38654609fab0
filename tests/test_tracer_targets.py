"""Every function the benchmark's tracer wraps must exist in plinv, and
a traced command must print what a plain one does.

`perfbench/tracer.py` rebinds each (module, attribute path) of its TARGETS
when `--trace 1` runs; a refactor that renames or deletes one of them
would break tracing without failing any other test.
"""

import importlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def _owner(modname, path):
    """(the module or class that holds the attribute path, its last name)."""
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.parametrize("name,modname,path", [t[:3] for t in _targets()])
def test_target_resolves(name, modname, path):
    owner, attr = _owner(modname, path)
    # install() reads the attribute from the owner's own namespace
    assert attr in vars(owner), f"{name}: {modname}.{path} is gone"
    assert callable(getattr(owner, attr))


def test_the_retired_store_is_stubs_alone():
    """Every def of plinv/cache.py, and `SymbolSpace.from_payload`, is a
    target that perfbench/tracer.py names and raises when called: the space
    store is retired, and no store code grows back beside those names."""
    import ast

    import plinv.cache

    tree = ast.parse(Path(plinv.cache.__file__).read_text())
    stubs = [("plinv.modsym", "SymbolSpace.from_payload")]
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            stubs.append(("plinv.cache", node.name))
        elif isinstance(node, ast.ClassDef):
            stubs += [("plinv.cache", f"{node.name}.{item.name}") for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    targets = {(modname, path) for _, modname, path, _ in _targets()}
    assert [stub for stub in stubs if stub not in targets] == []
    for modname, path in stubs:
        owner, attr = _owner(modname, path)
        stub = vars(owner)[attr]
        stub = getattr(stub, "__func__", stub)  # a classmethod's function
        with pytest.raises(RuntimeError, match="store is retired"):
            stub(owner, "modsym_11_plus", "modsym", {})


def test_the_dense_j_series_is_a_stub():
    """`curves.j_q_coefficients` is a target that perfbench/tracer.py names,
    and a docstring and a raise alone: `tate_period` sums Jacobi's sparse
    series, and no dense series grows back beside the name."""
    import ast

    import plinv.curves

    targets = {(modname, path) for _, modname, path, _ in _targets()}
    assert ("plinv.curves", "j_q_coefficients") in targets
    tree = ast.parse(Path(plinv.curves.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_series_mul" not in defs
    assert [type(node) for node in defs["j_q_coefficients"].body] == [ast.Expr, ast.Raise]
    with pytest.raises(RuntimeError, match="dense j-series is retired"):
        plinv.curves.j_q_coefficients(10)


INSTALL_AND_LIST_MISSED = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import plinv.cli
recorder = tracer.Tracer()
tracer.install(recorder)
print(tracer.unpatched_references(recorder))
"""


def test_every_binding_is_patched():
    """`install` rebinds only in the modules `import plinv.cli` loaded, so
    a module loaded later must call another module's traced function
    through that module (`padic.iwasawa_log(...)`), never by value."""
    import os
    import subprocess
    import sys

    import plinv

    src = os.path.dirname(os.path.dirname(plinv.__file__))
    proc = subprocess.run([sys.executable, "-c", INSTALL_AND_LIST_MISSED, str(TRACER)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["check-ezc", "--label", "11a1", "-p", "11", "--depth", "2"],
    ["lp", "--label", "11a1", "-p", "3", "--depth", "2", "--table"],
    ["stickelberger", "--label", "11a1", "-p", "11", "-n", "2", "--dual"],
    ["modsym", "dump", "--level", "37", "--hecke", "2,3"],
    ["check-twist", "--label", "11a1", "-D", "5", "-p", "11"],
    ["check-twist", "--label", "11a1", "-D", "-4", "-p", "11"],
], ids=["check-ezc", "lp", "stickelberger", "modsym-dump", "check-twist-5", "check-twist-minus-4"])
def test_traced_command_prints_what_a_plain_one_does(argv, tmp_path):
    """The same exit code and stdout bytes under `perfbench/traced_cli.py`
    as under `python -m plinv.cli`, and size counters that saw the P^1
    list, the space and, on a measure command, the measure table."""
    import os
    import subprocess
    import sys

    import plinv

    argv = ["--no-cache", "--no-meta", *argv]
    src = os.path.dirname(os.path.dirname(plinv.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               PERFBENCH_SPAWN_NS=str(time.perf_counter_ns()))
    spans = tmp_path / "spans.json"
    traced, plain = [subprocess.run([sys.executable, *head, *argv], env=env, cwd=tmp_path,
                                    capture_output=True, timeout=120)
                     for head in ([str(PERFBENCH / "traced_cli.py"), str(spans)],
                                  ["-m", "plinv.cli"])]
    assert plain.returncode == 0, plain.stderr
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), traced.stderr
    counters = json.loads(spans.read_text())["counters"]
    assert counters["modsym.p1_size"] > 0 and counters["modsym.dimension"] > 0, counters
    if argv[2] != "modsym":
        assert counters["measures.cells"] > 0, counters
