"""Every `def` of src/plinv/*.py, nested ones included, runs on some command
or is allow-listed below with its reason.  Under `sys.setprofile`, on a
cache directory that starts empty, one fresh process runs README's command
block and EXTRA through `main`, and `-h` once through `run` with `os._exit`
recorded instead of taken; a second runs README's block again on the same
directory, where `import-curve` finds its row registered already.  Fresh,
so that no memo or `lru_cache` of another test hides a function."""

import ast
import json
from pathlib import Path

import pytest

import plinv

from test_cli import _fresh_python, _readme_commands, _validate_report, run
from test_tracer_targets import _targets

SRC = Path(plinv.__file__).resolve().parent

EXTRA = [  # (argv, exit code): the shapes README does not show
    (["--no-cache", "check-ezc", "--label", "37b1", "-p", "37", "--depth", "2"], 0),
    (["--no-cache", "modsym", "dump", "--level", "389", "--hecke", "2,3"], 0),
    (["li-curve", "--label", "37b1", "-p", "37", "--prec", "70"], 0),
    (["modsym", "dump", "--level", "60", "--sign", "-", "--hecke", "2,3,5"], 0),
    (["check-ezc", "--label", "11a1", "-p", "11", "--depth", "2", "--dual"], 0),
    (["stickelberger", "--label", "11a1", "-p", "11", "-n", "2", "--dual"], 0),
    (["lp", "--label", "11a1", "-p", "3", "--depth", "2", "--table"], 0),  # good ordinary
    (["lp", "--label", "14a1", "-p", "2", "--depth", "2"], 0),
    (["lp", "--curve", "0,-1,1,-10,-20", "-p", "11", "--depth", "2"], 0),
    (["check-twist", "--label", "11a1", "-D", "-3", "-p", "11"], 0),
    (["li-period", "(2/3)^-2 * 50^1", "-p", "5", "--branch", "10"], 0),
    (["--format", "table", "li-curve", "--label", "11a1", "-p", "11", "--prec", "8"], 0),
    (["import-curve", "--row", "x297 0,0,0,1,297"], 0),  # disc 2^4 1093 2179: rho
    (["import-curve", "--row", "\U0001d53c11 0,-1,1,-10,-20"], 0),  # a label beyond ASCII
    (["li-period", "6^1", "-p", "5"], 2),
    (["modsym", "dump", "--level", "0"], 2),
    (["li-curve", "--label", "11a1", "-p", "4"], 3),
    (["li-curve", "--label", "11a1"], 3),
    (["-h"], 0),  # help, built from the option table
    (["check-ezc", "--help"], 0),
    (["modsym", "dump", "-h"], 0),
    (["li-curve", "--label", "11a1", "-p", "11", "--bogus"], 3),  # unknown option
    (["check-twist", "--label", "11a1", "-p", "11", "-D"], 3),  # missing value
    (["check-ezc", "--label", "11a1", "-p", "11", "--d", "2"], 3),  # ambiguous prefix
]

# A name covers the defs nested in it; a module or a class covers its defs.
ALLOWED = {
    # the one module no command runs: a field on padic.PadicElement's precision
    # model, whose hooks would otherwise serve tests alone, and where L_p at a
    # character valued in Q_{p^f} (the paper's abelian base change) takes its values
    "unramified": "Q_{p^f} and its exact elements",
    "twists.TwistedSymbol.weights": "refuses the base class's read of a presented basis",
    # no level up to 3999, of either sign, eliminates through a pivot that
    # leaves a Fraction, and an eigenvalue of an eigen-symbol is an int
    "linalg.fraction": "a non-integral coordinate or quotient",
    "padic.PadicNumber.zero": "the exact zero of Q_p",
    "padic.PadicNumber.lift": "the integer of a p-adic integer",
    "padic.PadicElement.is_exact_zero": "tells an exact zero from O(p^n)",
    "padic.PadicElement.teichmuller": "only the tracer target padic.teichmuller calls it",
}
# data-model hooks that no command calls: display, hashing, immutability
# and the field operations that complete the set
DUNDERS = {"__repr__", "__hash__", "__setattr__", "__rsub__", "__truediv__", "__rtruediv__"}

PROBE = """
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout
entered = set()
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(sys.argv[1]):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
from plinv.cli import main, run
with redirect_stderr(io.StringIO()):
    codes = [main(["--no-meta", *argv], out=io.StringIO()) for argv in json.loads(sys.argv[2])]
exits = []
os._exit = exits.append  # run, the process entry point, records its exit code
with redirect_stdout(io.StringIO()):
    run(["--no-meta", "-h"])
sys.setprofile(None)
assert exits == [0], exits
print(json.dumps([codes, sorted(entered)]))
"""


def _defs():
    """name -> (file, first line of its code: its first decorator's, if any)."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            name = f"{prefix}.{child.name}" if scope else prefix
            if scope and not isinstance(child, ast.ClassDef):
                out[name] = (path, min(d.lineno for d in [child, *child.decorator_list]))
            walk(child, name, path)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, str(path))
    return out


def _trace(runs, cache):
    proc = _fresh_python(["-c", PROBE, str(SRC), json.dumps(runs)], 120, PLINV_CACHE_DIR=cache)
    assert proc.returncode == 0, proc.stderr
    codes, entered = json.loads(proc.stdout)
    return codes, {tuple(e) for e in entered}


def _covers(entry, name):
    return name == entry or name.startswith(entry + ".")


def test_every_function_is_reached(tmp_path):
    readme = _readme_commands()
    codes, entered = _trace(readme + [argv for argv, _ in EXTRA], str(tmp_path))
    codes_warm, entered_warm = _trace(readme, str(tmp_path))
    assert codes + codes_warm == [0] * len(readme) + [rc for _, rc in EXTRA] + [0] * len(readme)
    defs, entered = _defs(), entered | entered_warm
    unreached = [name for name, key in defs.items() if key not in entered]
    idle = [entry for entry in ALLOWED if not any(_covers(entry, n) for n in unreached)]
    assert idle == [], "these cover no unreached def: drop them from ALLOWED"
    allowed = [*ALLOWED, *(f"{mod[len('plinv.'):]}.{path}" for _, mod, path, _ in _targets())]
    missed = sorted(n for n in unreached if n.rpartition(".")[2] not in DUNDERS
                    and not any(_covers(entry, n) for entry in allowed))
    assert missed == [], "no command runs:\n" + "\n".join(missed)


@pytest.mark.parametrize("argv", [argv for argv, rc in EXTRA if rc == 0
                                  and not {"--format", "-h", "--help"} & set(argv)], ids=" ".join)
def test_json_reports_validate(tmp_path, argv):
    """Each JSON report of EXTRA validates against its command's schema."""
    rc, out = run(argv, tmp_path)
    assert rc == 0, argv
    _validate_report(argv, out)
