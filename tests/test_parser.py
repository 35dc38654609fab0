"""The option table's parser against the argparse parser it replaced
(`helpers.build_parser`): on README's commands, the benchmark's, the
reachability fence's EXTRA and mutations of them, both give the same
names and values, or both reject.  The one difference allowed is that the
table takes a value or literal beginning with "-" that names no option,
which argparse takes only as `--opt=value` or behind `--`: there the two
must agree once such a value no longer begins with "-"."""

import io
import re
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plinv import UsageError, cli
from plinv.cli import TABLE, main, parse_args

from helpers import build_parser
from test_cli import _benchmark_commands, _readme_commands
from test_reachability import EXTRA

CORPUS = [["--no-meta", *argv] for argv in
          _readme_commands() + _benchmark_commands() + [argv for argv, _ in EXTRA]]
ORACLE = build_parser()
NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")  # argparse reads these as values


def _outcome(parse, argv):
    """vars() of the namespace, "rejected" or "help"."""
    try:
        with redirect_stdout(io.StringIO()):
            args = parse(list(argv))
    except UsageError:
        return "rejected"
    except SystemExit:  # argparse's -h
        return "help"
    return "help" if isinstance(args, str) else vars(args)


def _dash_values(argv):
    """The arguments beginning with "-" that parse_args took as a value or
    a literal, where argparse reads an unknown option."""
    taken, option = set(), cli._option

    def spy(arg, flags):
        hit = option(arg, flags)
        if hit[0] is None and arg[:1] == "-" and arg != "-" and not NEGATIVE_NUMBER.match(arg):
            taken.add(arg)
        return hit

    with mock.patch.object(cli, "_option", spy):
        parse_args(argv)
    return taken


def _assert_same(argv):
    """Both parsers read argv alike; where only parse_args takes it, they
    read it alike once each value it took that begins with "-" begins with
    "x" instead."""
    ours, theirs = _outcome(parse_args, argv), _outcome(ORACLE.parse_args, argv)
    if theirs == "rejected" and isinstance(ours, dict):
        taken = _dash_values(argv)
        assert taken, argv
        argv = ["x" + arg if arg in taken else arg for arg in argv]
        ours, theirs = _outcome(parse_args, argv), _outcome(ORACLE.parse_args, argv)
    assert ours == theirs, argv


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_corpus(argv):
    _assert_same(argv)


@pytest.mark.parametrize("argv", [
    ["li-curve", "--lab", "11a1", "-p", "11", "--pre", "8"],
    ["check-ezc", "--label=11a1", "-p=11", "--dep=2", "--dual"],
    ["check-ezc", "--label", "11a1", "-p11", "--depth", "2", "--depth", "3"],
    ["check-twist", "--label", "11a1", "-D", "-4", "-p", "11"],
    ["check-twist", "--label", "11a1", "-D-4", "-p", "11"],
    ["li-period", "-p", "5", "--", "-5^1"],
    ["li-period", "-p", "5", "--branch=-1/5", "30^1"],
    ["li-period", "-p", "5", "30^1", "--"],
    ["stickelberger", "-n2", "--label", "11a1", "-p", "11", "-n=1"],
    ["--no-c", "--form", "table", "modsym", "dump", "--lev", "11", "--sign", "-"],
    ["--cache-dir=x", "modsym", "dump", "--level=11", "--sign=-1", "--hec=2"],
    ["import-curve", "--row", "19a1 0,1,1,-9,-15"],
    # rejected by both
    [], ["--", "li-period", "30^1", "-p", "5"], ["modsym"], ["modsym", "--level", "11", "dump"],
    ["li-period", "-p", "--", "5", "30^1"], ["li-period", "30^1", "-p", "5", "--"],
    ["li-curve", "--label", "11a1", "-p", "11", "--"], ["modsym", "--", "dump", "--level", "11"],
    ["li-period", "30^1", "-p", "5", "--no-meta"], ["--no", "li-curve", "--label", "x", "-p", "5"],
    ["check-ezc", "--label", "11a1", "-p", "11", "--d", "2"], ["li-curve", "--label"],
    ["li-curve", "--label", "11a1", "-p", "11", "--bogus"], ["li-curve", "--label", "11a1"],
    ["check-ezc", "--label", "11a1", "-p", "11", "--dual=1"], ["--format", "xml", "li-period"],
    ["li-period", "30^1", "6^1", "-p", "5"], ["check-ezc", "--label", "11a1", "-p", "6"],
    ["", "li-period"], ["modsym", "dump", "--level", "ten"], ["lp", "-p", "--dual"],
])
def test_forms_argparse_reads(argv):
    _assert_same(argv)


@pytest.mark.parametrize("argv,dest,value", [
    (["li-period", "-5^1", "-p", "5"], "literal", "-5^1"),
    (["li-period", "30^1", "-p", "5", "--branch", "-1/5"], "branch", "-1/5"),
])
def test_a_value_beginning_with_a_dash_is_taken(argv, dest, value):
    with pytest.raises(UsageError):
        ORACLE.parse_args(argv)
    assert getattr(parse_args(argv), dest) == value
    _assert_same(argv)


_POOL = ["--", "--bogus", "-x", "--d", "--no", "--lab", "--c", "-p", "7", "11", "-4", "-D-4",
         "-5^1", "-1/5", "--dual", "--prec", "--prec=", "-p=11", "--format", "table", "-", "",
         "modsym", "dump", "li-curve", "--level", "--sign", "+", "--branch", "cyc", "--depth",
         "2", "-n", "--row", "--label", "11a1", "--no-meta", "--cache-dir", "x y", "-p 5"]


@st.composite
def _mutants(draw):
    """A corpus argv after one to four edits: an abbreviation, an `=` or
    attached value, a repeat, a move, a swap, an insertion, a deletion, or
    a dash put before an argument."""
    argv = list(draw(st.sampled_from(CORPUS)))
    for _ in range(draw(st.integers(1, 4))):
        n = len(argv)
        i, j = draw(st.integers(0, max(n - 1, 0))), draw(st.integers(0, n))
        op = draw(st.sampled_from(["abbrev", "join", "repeat", "move", "swap", "insert", "drop",
                                   "dash"]))
        tok = argv[i] if argv else ""
        after = argv[i + 1] if i + 1 < n else None
        if op == "abbrev" and tok.startswith("--") and len(tok) > 3:
            argv[i] = tok[:draw(st.integers(3, len(tok) - 1))]
        elif op == "join" and tok[:1] == "-" and after not in (None, "--"):  # `-p=--` is []
            sep = draw(st.sampled_from(["=", ""] if len(tok) == 2 else ["="]))
            argv[i:i + 2] = [tok + sep + after]
        elif op == "repeat" and n:
            argv[j:j] = argv[i:i + 2]
        elif op == "move" and n:
            argv.insert(j, argv.pop(i))
        elif op == "swap" and n:
            k = draw(st.integers(0, n - 1))
            argv[i], argv[k] = argv[k], argv[i]
        elif op == "insert":
            argv.insert(j, draw(st.sampled_from(_POOL)))
        elif op == "drop" and n:
            del argv[i]
        elif op == "dash" and n:
            argv[i] = "-" + tok
    # argparse acts on -h when it reads it, before it rejects an unknown
    # option read earlier; -h has a test of its own
    assume(not any(arg[:2] == "-h" or len(arg.partition("=")[0]) > 2
                   and "--help".startswith(arg.partition("=")[0]) for arg in argv))
    return argv


@settings(max_examples=600, deadline=None)
@given(_mutants())
@example(["--no-meta", "li-period", "-p", "5", "--", "-5^1", "--"])
@example(["--no-meta", "check-twist", "--label", "11a1", "-D", "--", "-4", "-p", "11"])
@example(["--no-meta", "modsym", "dump", "--hecke", "--level", "11"])
def test_mutants(argv):
    _assert_same(argv)


@pytest.mark.parametrize("key", TABLE)
def test_help_names_every_option_of_its_command(key):
    out = io.StringIO()
    assert main([*key.split()[1:], "-h"], out=out) == 0
    text = out.getvalue()
    names = [name for opt in TABLE[key][1] for name in opt[0].split() if name != "COMMAND"]
    commands = [k.rpartition(" ")[2] for k in TABLE if k.rpartition(" ")[0] == key]
    for name in names + commands + ["-h", "--help"]:
        assert re.search(rf"(^|[\s,]){re.escape(name)}([\s,]|$)", text, re.M), (key, name)
